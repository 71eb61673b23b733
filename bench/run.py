"""NSFNet host-time benchmark: µs per request end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload light_full --seed 0 --seconds 36 --trace 0

Each workload runs First Fit, Exact Fit and First-Last Fit on the bundled
NSFNet topology with its k=3 routes, one simulation at a time in a single
thread (a closed loop: the simulator draws its own requests from the seeded
streams).  Every run starts from all-free grids, as users run it.

``--trace 0`` times ``Simulator.run()`` untraced in a worker process and
times set-up (import, documents, configs, ``init()``) in fresh processes;
``--trace 1`` runs an untraced base and a separately traced run, each in
its own process, and reports per-layer self times and counts.  Every run is
checked for conservation and drain, and at the default seed against the
counts, ``.dat`` hashes and placement digests in ``expected.json``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The benchmark's results are the
simulator's host time only: the NSFNet scenarios carry no reference
blocking values, so the simulated blocking is unvalidated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import scenarios
from scenarios import ALGORITHMS, BENCH_DIR, ROOT, WORKLOADS, BenchSetupError

SETUP_PROBES = 9
#: Every worker must have ended this long after the start.
DEADLINE_S = 170

END_TO_END = (
    [("us_per_request", "us", "lower")]
    + [(f"us_per_request.{a}", "us", "lower") for a in ALGORITHMS]
    + [("setup_s", "s", "lower"), ("peak_rss_mb", "MiB", "lower")]
)

# Per-layer figures a traced run reports for each algorithm, before the
# ``.FF``/``.EF``/``.FLF`` suffix.  Counts repeat exactly for a given seed.
LAYER_METRICS = (
    ("traffic.src_dst_us_per_req", "us", "lower"),
    ("traffic.src_dst_calls_per_req", "calls/req", "lower"),
    ("traffic.bitrate_us_per_req", "us", "lower"),
    ("traffic.bitrate_calls_per_req", "calls/req", "lower"),
    ("traffic.exponential_us_per_req", "us", "lower"),
    ("traffic.exponential_calls_per_req", "calls/req", "lower"),
    ("engine.queue_us_per_req", "us", "lower"),
    ("engine.queue_calls_per_req", "calls/req", "lower"),
    ("engine.queue_peak", "events", "lower"),
    ("engine.self_us_per_req", "us", "lower"),
    ("engine.arrival_p50_us", "us", "lower"),
    ("engine.arrival_p999_us", "us", "lower"),
    ("engine.init_us", "us", "lower"),
    ("algorithms.search_us_per_req", "us", "lower"),
    ("algorithms.accept_ratio", "ratio", "higher"),
    ("algorithms.options_filter_us_per_req", "us", "lower"),
    ("algorithms.options_filter_calls_per_req", "calls/req", "lower"),
    ("algorithms.routes_per_req", "calls/req", "lower"),
    ("algorithms.grid_us_per_req", "us", "lower"),
    ("algorithms.kernel_calls_per_req", "calls/req", "lower"),
    ("algorithms.first_free_us_per_req", "us", "lower"),
    ("algorithms.exact_free_us_per_req", "us", "lower"),
    ("allocation.commit_us_per_req", "us", "lower"),
    ("allocation.stage_us_per_req", "us", "lower"),
    ("allocation.staged_ranges_per_accept", "ranges/accept", "lower"),
    ("network.release_us_per_req", "us", "lower"),
    ("network.release_calls_per_req", "calls/req", "lower"),
    ("report.record_us_per_req", "us", "lower"),
    ("inputs.parse_s", "s", "lower"),
    ("trace.bookkeeping_us_per_req", "us", "lower"),
    ("trace.traced_us_per_request", "us", "lower"),
    ("trace.untraced_us_per_request", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
COUNT_UNITS = {"calls/req", "events", "ratio", "ranges/accept"}
# Only Exact Fit calls the exact-run kernel; for FF and FLF that time is
# zero by construction and is not reported.
EXACT_ONLY = "algorithms.exact_free_us_per_req"
WORKLOAD_TRACE_METRICS = (
    ("trace.traced_us_per_request", "us", "lower"),
    ("trace.untraced_us_per_request", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_catalog() -> list[tuple[str, str, str]]:
    names = []
    for algorithm in ALGORITHMS:
        for name, unit, better in LAYER_METRICS:
            if name == EXACT_ONLY and algorithm != "EF":
                continue
            names.append((f"{name}.{algorithm}", unit, better))
    return names + list(WORKLOAD_TRACE_METRICS)


def run_child(mode: str, args, *extra: str) -> dict:
    command = [sys.executable, str(BENCH_DIR / "worker.py"), mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--goal", str(args.goal), "--expected", args.expected, *extra]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired as err:
        raise BenchSetupError(f"{mode} worker timed out") from err
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchSetupError(f"{mode} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def timing_medians(runs: list[dict], goal: int) -> dict[str, float]:
    """Median µs/request per algorithm and over whole passes of all three."""
    medians = {}
    for algorithm in ALGORITHMS:
        values = [r["run_ns"] / goal / 1e3 for r in runs
                  if r["algorithm"] == algorithm and r["run_ns"] is not None]
        if not values:
            raise BenchSetupError(f"no {algorithm} run completed")
        medians[algorithm] = statistics.median(values)
    passes: dict[int, list[int]] = {}
    for run in runs:
        if run["run_ns"] is not None:
            passes.setdefault(run["pass_index"], []).append(run["run_ns"])
    totals = [sum(ns) / (len(ns) * goal) / 1e3
              for ns in passes.values() if len(ns) == len(ALGORITHMS)]
    if not totals:
        raise BenchSetupError("no pass completed all three algorithms")
    medians["all"] = statistics.median(totals)
    return medians


def report_runs(label: str, runs: list[dict]) -> int:
    """Print each failed run and one line per algorithm; return the failures."""
    failed = 0
    for run in runs:
        if run["failures"]:
            failed += 1
            print(f"{label} algorithm={run['algorithm']} pass={run['pass_index']}"
                  " FAIL " + " | ".join(f.strip().replace("\n", " / ")
                                        for f in run["failures"]))
    for algorithm in ALGORITHMS:
        own = [r for r in runs if r["algorithm"] == algorithm]
        result = next((r["outcome"] for r in own if r["outcome"]), {})
        digest = result.get("placement_sha256")
        print(f"{label} algorithm={algorithm} runs={len(own)}"
              f" failed={sum(1 for r in own if r['failures'])}"
              f" blocked={result.get('blocked')} accepted={result.get('accepted')}"
              f" dat_sha256={result.get('dat_sha256')}"
              + (f" placement_sha256={digest}" if digest else ""))
    return failed


def untraced(args) -> tuple[int, int, dict]:
    run_child("setup", args)  # warm-up: byte-compiles the sources once
    setup = [run_child("setup", args)["setup_s"] for _ in range(SETUP_PROBES)]
    measured = run_child("measure", args, "--seconds", str(args.seconds))
    print(f"seeds={','.join(map(str, measured['seeds']))}")
    runs = measured["runs"]
    failed = report_runs("run", runs)
    medians = timing_medians(runs, args.goal)
    metrics = {"us_per_request": medians["all"]}
    for algorithm in ALGORITHMS:
        metrics[f"us_per_request.{algorithm}"] = medians[algorithm]
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = measured["peak_rss_mb"]
    print(f"setup probes={len(setup)} min={min(setup):.4f} "
          f"max={max(setup):.4f} s")
    return len(runs), failed, metrics


def traced(args) -> tuple[int, int, dict]:
    base = run_child("measure", args, "--seconds", str(args.seconds / 3))
    traced_runs = run_child("trace", args, "--seconds", str(args.seconds * 2 / 3))
    print(f"seeds={','.join(map(str, traced_runs['seeds']))}")
    failed = report_runs("base", base["runs"])
    runs = traced_runs["runs"]
    failed += report_runs("traced", runs)
    untraced_medians = timing_medians(base["runs"], args.goal)
    traced_medians = timing_medians(runs, args.goal)
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    metrics = {}
    for algorithm in ALGORITHMS:
        own = [r for r in runs if r["algorithm"] == algorithm and r.get("layers")]
        if not own:
            raise BenchSetupError(f"no traced {algorithm} run completed")
        base_outcome = next((r["outcome"] for r in base["runs"]
                             if r["algorithm"] == algorithm and r["outcome"]), None)
        for run in own:
            problems = check_traced_run(run, base_outcome, own[0]["layers"], units)
            if problems and not run["failures"]:
                failed += 1
            for problem in problems:
                print(f"traced algorithm={algorithm} pass={run['pass_index']}"
                      f" FAIL {problem}")
        for name, unit in units.items():
            if name not in own[0]["layers"] or (name == EXACT_ONLY
                                                and algorithm != "EF"):
                continue
            values = [r["layers"][name] for r in own]
            metrics[f"{name}.{algorithm}"] = (
                values[0] if unit in COUNT_UNITS else statistics.median(values))
        samples = own[0]["arrival_samples"]
        print(f"arrivals algorithm={algorithm} samples={samples} per run")
        metrics[f"trace.untraced_us_per_request.{algorithm}"] = untraced_medians[algorithm]
        metrics[f"trace.overhead_ratio.{algorithm}"] = (
            traced_medians[algorithm] / untraced_medians[algorithm])
    metrics["trace.traced_us_per_request"] = traced_medians["all"]
    metrics["trace.untraced_us_per_request"] = untraced_medians["all"]
    metrics["trace.overhead_ratio"] = traced_medians["all"] / untraced_medians["all"]
    return len(base["runs"]) + len(runs), failed, metrics


def check_traced_run(run: dict, base_outcome: dict | None, first_layers: dict,
                     units: dict[str, str]) -> list[str]:
    """Problems of a traced run beyond those its worker already found."""
    layers = run["layers"]
    problems = []
    if base_outcome is not None:
        problems += [f"tracing changed the result: {m}"
                     for m in scenarios.mismatches(run["outcome"], base_outcome)]
    problems += [f"count {name} = {layers[name]} differs from the first pass"
                 f" ({first_layers[name]})" for name, unit in units.items()
                 if unit in COUNT_UNITS and name in layers
                 and layers[name] != first_layers[name]]
    self_sum = sum(value for name, value in layers.items()
                   if name.endswith("_us_per_req"))
    total = layers["trace.traced_us_per_request"]
    if abs(self_sum - total) > 1e-9 * total:
        problems.append(f"layer self times sum to {self_sum} us, "
                        f"traced run() took {total} us")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goal", type=int, default=scenarios.GOAL,
                        help="requests per simulation run")
    parser.add_argument("--expected", default=str(scenarios.EXPECTED_FILE),
                        help="recorded results to check the default seed against")
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + DEADLINE_S
    try:
        if not (scenarios.SRC / "eonsim" / "__init__.py").is_file():
            raise BenchSetupError(f"no library sources under {scenarios.SRC}")
        print(f"workload={args.workload} seed={args.seed} goal={args.goal}"
              f" trace={args.trace}")
        attempted, failed, metrics = (traced if args.trace else untraced)(args)
    except BenchSetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    catalog = per_layer_catalog() if args.trace else END_TO_END
    for name, unit, _ in catalog:
        print(f"metric {name}={metrics[name]:.6g} {unit}")
    print(f"metric failed_ratio={failed / attempted:g} ratio"
          f" ({failed} of {attempted} runs failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in catalog},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
