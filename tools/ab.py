"""In-process A/B timing of two eonsim source trees on the bench workloads.

    python tools/ab.py --base DIR --change DIR --pairs N --out FILE

``DIR`` is a checkout whose ``src/eonsim`` is timed.  Both trees are
imported into this one process (``eonsim*`` is purged from ``sys.modules``
between the imports, and each side's modules are put back in place before
its runs), and both are driven through ``bench/scenarios.py`` of the
checkout this script sits in, so the two sides share the workloads, the
seeds and the set-up.  Host speed drifts over minutes, so the sides run as
pairs: pair ``i`` times every cell (the three bench workloads × FF/EF/FLF,
``scenarios.GOAL`` requests at the default seed) base first when ``i`` is
even and change first when it is odd.  Only ``Simulator.run()`` is timed,
after a ``gc.collect()``.

The JSON written to ``--out`` holds, per cell, each side's median and
quartiles of µs per request, the ratio of the medians (change/base), the
median of the per-pair ratios and the change's wins, and, pooled over every
pair of every cell, the wins and an exact two-sided sign test.  A change
that is faster wins its pairs; read ``pooled.sign_test_p`` below 0.01 with
``pooled.change_wins`` above half the untied pairs as a gain.  The raw
per-run times are kept under ``runs``.

Exits with 1, after writing the file, when the two sides of any pair differ
in blocked or accepted counts, or a run breaks a drain or conservation
check: a speed comparison of runs that do different work means nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import scenarios  # noqa: E402  (bench/ is not a package)
from scenarios import ALGORITHMS, WORKLOADS  # noqa: E402

SIDES = ("base", "change")


def _purge() -> None:
    for name in [name for name in sys.modules
                 if name == "eonsim" or name.startswith("eonsim.")]:
        del sys.modules[name]


def load_side(tree: Path) -> dict:
    """Import ``tree/src/eonsim`` afresh; returns its modules by name."""
    src = (tree / "src").resolve()
    if not (src / "eonsim" / "__init__.py").is_file():
        raise SystemExit(f"no eonsim sources under {src}")
    _purge()
    sys.path.insert(0, str(src))
    try:
        import eonsim
    finally:
        sys.path.remove(str(src))
    if Path(eonsim.__file__).resolve().parent != src / "eonsim":
        raise SystemExit(f"imported eonsim from {eonsim.__file__}, not {src}")
    return {name: module for name, module in sys.modules.items()
            if name == "eonsim" or name.startswith("eonsim.")}


def activate(modules: dict):
    """Make one side's modules the ``eonsim`` that imports inside a run see."""
    _purge()
    sys.modules.update(modules)
    return modules["eonsim"]


class Side:
    """One source tree with its parsed inputs per workload."""

    def __init__(self, tree: Path):
        self.modules = load_side(tree)
        eonsim = activate(self.modules)
        self.seeds = scenarios.seeds_for(eonsim, scenarios.DEFAULT_SEED)
        self.parsed = {name: scenarios.parse_documents(
                           eonsim, scenarios.read_documents(workload))
                       for name, workload in WORKLOADS.items()}

    def run(self, workload: str, algorithm: str, goal: int) -> dict:
        eonsim = activate(self.modules)
        sim = scenarios.build_simulator(eonsim, WORKLOADS[workload],
                                        self.parsed[workload], algorithm,
                                        self.seeds, goal)
        sim.init()
        gc.collect()
        start = perf_counter_ns()
        report = sim.run()
        run_ns = perf_counter_ns() - start
        return {"us_per_request": run_ns / goal / 1e3,
                "blocked": report.blocked, "accepted": report.accepted,
                "failures": scenarios.invariant_failures(sim, report, goal)}


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided binomial p of ``wins`` against ``losses`` at 1/2."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict]) -> dict:
    cells = {}
    all_ratios, wins, losses = [], 0, 0
    for workload in WORKLOADS:
        for algorithm in ALGORITHMS:
            own = [run for run in runs
                   if (run["workload"], run["algorithm"]) == (workload, algorithm)]
            base = [run["base_us"] for run in own]
            change = [run["change_us"] for run in own]
            ratios = [c / b for b, c in zip(base, change)]
            cell_wins = sum(c < b for b, c in zip(base, change))
            cell_losses = sum(c > b for b, c in zip(base, change))
            wins += cell_wins
            losses += cell_losses
            all_ratios += ratios
            cells[f"{workload}/{algorithm}"] = {
                "base_us": spread(base), "change_us": spread(change),
                "ratio_of_medians":
                    statistics.median(change) / statistics.median(base),
                "median_pair_ratio": statistics.median(ratios),
                "change_wins": cell_wins, "pairs": len(own),
                "blocked": own[0]["blocked"], "accepted": own[0]["accepted"],
            }
    return {"cells": cells, "pooled": {
        "pairs": len(runs), "change_wins": wins, "base_wins": losses,
        "ties": len(runs) - wins - losses, "sign_test_p": sign_test(wins, losses),
        "median_pair_ratio": statistics.median(all_ratios),
        "pair_ratio_quartiles": statistics.quantiles(all_ratios, n=4)[::2],
    }}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs")
    goal = scenarios.GOAL
    sides = {"base": Side(args.base), "change": Side(args.change)}
    runs, problems, counts_equal = [], [], True
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in WORKLOADS:
            for algorithm in ALGORITHMS:
                done = {side: sides[side].run(workload, algorithm, goal)
                        for side in order}
                base, change = done["base"], done["change"]
                cell = f"pair {pair} {workload}/{algorithm}"
                for side in SIDES:
                    problems += [f"{cell} {side}: {failure}"
                                 for failure in done[side]["failures"]]
                for count in ("blocked", "accepted"):
                    if base[count] != change[count]:
                        counts_equal = False
                        problems.append(f"{cell}: {count} {base[count]} (base) "
                                        f"!= {change[count]} (change)")
                runs.append({"pair": pair, "order": "".join(s[0] for s in order),
                             "workload": workload, "algorithm": algorithm,
                             "base_us": base["us_per_request"],
                             "change_us": change["us_per_request"],
                             "blocked": base["blocked"],
                             "accepted": base["accepted"]})
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    result = {"base": str(args.base), "change": str(args.change),
              "pairs": args.pairs, "goal": goal, "seed": scenarios.DEFAULT_SEED,
              "python": platform.python_version(), "counts_equal": counts_equal,
              "problems": problems, **summarise(runs), "runs": runs}
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    pooled = result["pooled"]
    print(f"pooled: change wins {pooled['change_wins']} of {pooled['pairs']} pairs"
          f" ({pooled['ties']} ties), sign test p={pooled['sign_test_p']:.3g},"
          f" median pair ratio {pooled['median_pair_ratio']:.3f}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
