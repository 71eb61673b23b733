"""One benchmark process: a set-up probe, untraced runs or traced runs.

``run.py`` starts this script in fresh processes and reads the JSON object
it prints as its last line of standard output:

    python3 bench/worker.py setup   --workload W --seed N
    python3 bench/worker.py measure --workload W --seed N --seconds S --goal G
    python3 bench/worker.py trace   --workload W --seed N --seconds S --goal G

``measure`` and ``trace`` run passes of FF, EF and FLF on the same seed
vector until the next pass would overrun ``--seconds`` (at least two
passes).  Every run is checked; a run that raises, breaks
an invariant, differs from the recorded results or from an earlier pass of
the same algorithm is reported with its failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import scenarios
from scenarios import ALGORITHMS, ROOT, WORKLOADS
from tracer import Tracer

#: Passes each measuring process makes at least, so that every run can be
#: compared with a repeat of itself.
MIN_PASSES = 2


def setup_probe(args) -> dict:
    """Seconds from ``import eonsim`` to every run initialised."""
    start = perf_counter()
    eonsim = scenarios.import_eonsim()
    workload = WORKLOADS[args.workload]
    parsed = scenarios.parse_documents(eonsim,
                                       scenarios.read_documents(workload))
    seeds = scenarios.seeds_for(eonsim, args.seed)
    simulators = [scenarios.build_simulator(eonsim, workload, parsed, algorithm,
                                            seeds, args.goal)
                  for algorithm in ALGORITHMS]
    for simulator in simulators:
        simulator.init()
    return {"setup_s": perf_counter() - start}


def _percentile(sorted_values: list[int], share: float) -> int:
    return sorted_values[min(len(sorted_values) - 1,
                             int(share * len(sorted_values)))]


def layer_metrics(tracer, goal: int, parse_ns: int, init_ns: int) -> dict:
    """Per-layer figures of one traced run, before the algorithm suffix."""
    cells = tracer.cells

    def us(name):
        return cells.get(name, (0, 0))[0] / goal / 1e3

    def per_req(name):
        return cells.get(name, (0, 0))[1] / goal

    accepted = len(tracer.placements)
    arrivals = sorted(tracer.arrival_ns)
    return {
        "traffic.src_dst_us_per_req": us("traffic.src_dst"),
        "traffic.src_dst_calls_per_req": per_req("traffic.src_dst"),
        "traffic.bitrate_us_per_req": us("traffic.bitrate"),
        "traffic.bitrate_calls_per_req": per_req("traffic.bitrate"),
        "traffic.exponential_us_per_req": us("traffic.exponential"),
        "traffic.exponential_calls_per_req": per_req("traffic.exponential"),
        "engine.queue_us_per_req": us("engine.queue"),
        "engine.queue_calls_per_req": per_req("engine.queue"),
        "engine.queue_peak": tracer.queue_peak,
        "engine.self_us_per_req": tracer.engine_self_ns / goal / 1e3,
        "engine.arrival_p50_us": _percentile(arrivals, 0.5) / 1e3,
        "engine.arrival_p999_us": _percentile(arrivals, 0.999) / 1e3,
        "engine.init_us": init_ns / 1e3,
        "algorithms.search_us_per_req": us("algorithms.search"),
        "algorithms.accept_ratio": accepted / cells["algorithms.search"][1],
        "algorithms.options_filter_us_per_req": us("algorithms.options_filter"),
        "algorithms.options_filter_calls_per_req":
            per_req("algorithms.options_filter"),
        "algorithms.routes_per_req": per_req("algorithms.grid"),
        "algorithms.grid_us_per_req": us("algorithms.grid"),
        "algorithms.kernel_calls_per_req":
            per_req("algorithms.first_free") + per_req("algorithms.exact_free"),
        "algorithms.first_free_us_per_req": us("algorithms.first_free"),
        "algorithms.exact_free_us_per_req": us("algorithms.exact_free"),
        "allocation.commit_us_per_req": us("allocation.commit"),
        "allocation.stage_us_per_req": us("allocation.stage"),
        "allocation.staged_ranges_per_accept":
            sum(len(staged) for staged in tracer.placements) / max(accepted, 1),
        "network.release_us_per_req": us("network.release"),
        "network.release_calls_per_req": per_req("network.release"),
        "report.record_us_per_req": us("report.record"),
        "inputs.parse_s": parse_ns / 1e9,
        "trace.bookkeeping_us_per_req": us("trace.bookkeeping"),
        "trace.traced_us_per_request": tracer.run_ns / goal / 1e3,
    }


class Session:
    """State shared by the runs of one ``measure`` or ``trace`` process."""

    def __init__(self, args, scratch_dir: Path, expected: dict):
        self.args = args
        self.eonsim = scenarios.import_eonsim()
        self.workload = WORKLOADS[args.workload]
        self.texts = scenarios.read_documents(self.workload)
        self.parsed = scenarios.parse_documents(self.eonsim, self.texts)
        self.seeds = scenarios.seeds_for(self.eonsim, args.seed)
        self.expected = expected
        self.scratch_dir = scratch_dir
        self.first_outcome: dict[str, dict] = {}

    def _check(self, algorithm: str, sim, report, result: dict) -> list[str]:
        args = self.args
        failures = scenarios.invariant_failures(sim, report, args.goal)
        failures += scenarios.mismatches(result, scenarios.recorded(
            self.expected, args.goal, args.workload, algorithm, args.seed))
        reference = self.first_outcome.setdefault(algorithm, result)
        failures += [f"differs from the first pass: {m}"
                     for m in scenarios.mismatches(result, reference)]
        return failures

    def untraced_run(self, algorithm: str) -> dict:
        eonsim, args = self.eonsim, self.args
        sim = scenarios.build_simulator(eonsim, self.workload, self.parsed,
                                        algorithm, self.seeds, args.goal)
        sim.init()
        gc.collect()
        start = perf_counter_ns()
        report = sim.run()
        run_ns = perf_counter_ns() - start
        result = scenarios.outcome(eonsim, report, self.scratch_dir)
        return {"run_ns": run_ns, "outcome": result,
                "failures": self._check(algorithm, sim, report, result)}

    def traced_run(self, algorithm: str) -> dict:
        eonsim, args = self.eonsim, self.args
        gc.collect()
        start = perf_counter_ns()
        parsed = scenarios.parse_documents(eonsim, self.texts)
        parse_ns = perf_counter_ns() - start
        tracer = Tracer(eonsim)
        sim = scenarios.build_simulator(
            eonsim, self.workload, parsed, algorithm, self.seeds, args.goal,
            allocator=tracer.wrap_allocator(eonsim.ALGORITHMS[algorithm]),
            event_listener=tracer.event_listener)
        start = perf_counter_ns()
        sim.init()
        init_ns = perf_counter_ns() - start
        gc.collect()
        report = tracer.run(sim)
        result = scenarios.outcome(eonsim, report, self.scratch_dir)
        result["placement_sha256"] = tracer.placement_digest()
        failures = self._check(algorithm, sim, report, result)
        if not tracer.balanced:
            failures.append("a traced span was left open")
        layers = layer_metrics(tracer, args.goal, parse_ns, init_ns)
        return {"run_ns": tracer.run_ns, "outcome": result,
                "failures": failures, "layers": layers,
                "arrival_samples": len(tracer.arrival_ns)}

    def passes(self, run_one) -> list[dict]:
        """Passes over every algorithm until the time budget is spent."""
        runs = []
        started = perf_counter()
        passes = 0
        while True:
            passes += 1
            for algorithm in ALGORITHMS:
                try:
                    run = run_one(algorithm)
                except Exception:  # reported as a failed run, not a crash
                    run = {"run_ns": None, "outcome": None,
                           "failures": [traceback.format_exc()]}
                run.update(algorithm=algorithm, pass_index=passes)
                runs.append(run)
            elapsed = perf_counter() - started
            if (passes >= MIN_PASSES
                    and elapsed + elapsed / passes > self.args.seconds):
                return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--goal", type=int, default=scenarios.GOAL)
    parser.add_argument("--expected", default=str(scenarios.EXPECTED_FILE))
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup_probe(args)
    else:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
            session = Session(args, Path(tmp),
                              scenarios.load_expected(Path(args.expected)))
            runs = session.passes(session.untraced_run if args.mode == "measure"
                                  else session.traced_run)
        result = {
            "seeds": list(session.seeds),
            "runs": runs,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
