"""Record the results the benchmark checks the default seed against.

    python3 bench/record.py

Runs every workload and algorithm at the default seed, once untraced and
once traced, for the benchmark's request count and for the self-test's, and
rewrites ``expected.json`` with the counts, the ``.dat`` hash and the
placement digest of each run.  Re-record only for a change that alters
simulation results on purpose, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import scenarios
from scenarios import ALGORITHMS, ROOT, WORKLOADS
from worker import Session


def record(goal: int, workload: str, scratch_dir: Path) -> dict:
    args = argparse.Namespace(workload=workload, seed=scenarios.DEFAULT_SEED,
                              goal=goal)
    session = Session(args, scratch_dir, expected={})
    entries = {}
    for algorithm in ALGORITHMS:
        plain = session.untraced_run(algorithm)
        traced = session.traced_run(algorithm)
        failures = plain["failures"] + traced["failures"]
        if failures:
            raise SystemExit(f"{workload} {algorithm} goal={goal}: {failures}")
        entries[algorithm] = traced["outcome"]
        print(f"goal={goal} workload={workload} algorithm={algorithm} "
              f"blocked={traced['outcome']['blocked']}", flush=True)
    return entries


def main() -> int:
    expected = {"seeds": None, "goals": {}}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        for goal in (scenarios.GOAL, scenarios.SELFTEST_GOAL):
            expected["goals"][str(goal)] = {
                workload: record(goal, workload, Path(tmp))
                for workload in WORKLOADS}
    eonsim = scenarios.import_eonsim()
    expected["seeds"] = list(scenarios.seeds_for(eonsim, scenarios.DEFAULT_SEED))
    scenarios.EXPECTED_FILE.write_text(json.dumps(expected, indent=1) + "\n",
                                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
