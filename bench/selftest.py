"""Self-test of the benchmark at a small request count.

    python3 bench/selftest.py

Checks, in about a minute:

1. ``BENCHMARK.json`` lists exactly the workloads and metrics ``run.py``
   reports.
2. Every workload runs once untraced and once traced at the self-test's
   request count and the default seed, and every run passes its checks.
3. With one recorded blocked count deliberately off by one, the same run is
   reported as failed (``correct`` false, ``failed`` > 0), not as a pass.

Exits with 1 when any check fails.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import scenarios
from scenarios import BENCH_DIR, ROOT, SELFTEST_GOAL, WORKLOADS


def bench(workload: str, trace: int, expected: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(scenarios.DEFAULT_SEED), "--seconds", "0.1",
         "--trace", str(trace), "--goal", str(SELFTEST_GOAL),
         "--expected", str(expected)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"run.py {workload} --trace {trace} exited "
                             f"with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_manifest() -> list[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from scenarios.py")
    for key, catalog in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.per_layer_catalog())):
        listed = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        if listed != list(catalog):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def main() -> int:
    problems = check_manifest()
    expected = scenarios.load_expected()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        tampered = copy.deepcopy(expected)
        tampered["goals"][str(SELFTEST_GOAL)]["heavy_full"]["EF"]["blocked"] += 1
        tampered_file = Path(tmp) / "tampered.json"
        tampered_file.write_text(json.dumps(tampered), encoding="utf-8")
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = bench(workload, trace, scenarios.EXPECTED_FILE)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} --trace {trace} failed: {result}")
                print(f"selftest {workload} trace={trace} attempted="
                      f"{result['attempted']} failed={result['failed']}",
                      flush=True)
        result = bench("heavy_full", 0, tampered_file)
        if result["correct"] or result["failed"] < 1:
            problems.append("a wrong recorded blocked count was not reported "
                            f"as a failed run: {result}")
        print(f"selftest tampered record attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}")
    for problem in problems:
        print(f"selftest FAIL {problem}")
    print("selftest " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
