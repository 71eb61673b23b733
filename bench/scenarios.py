"""Workloads, seed derivation and the correctness gate of the benchmark.

Shared by the orchestrator (``run.py``), the worker processes
(``worker.py``), ``record.py`` and ``selftest.py``.  Nothing here imports
``eonsim`` at module level: the set-up probe times that import itself.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_FILE = BENCH_DIR / "expected.json"

ALGORITHMS = ("FF", "EF", "FLF")
#: Workload seed that maps to the library's default ``Seeds()``; the
#: recorded counts and digests in ``expected.json`` belong to it.
DEFAULT_SEED = 0
#: Requests per simulation run; the recorded counts are per request count.
GOAL = 10_000
SELFTEST_GOAL = 2_000

NETWORK_FILE = "nsfnet_network.json"
ROUTES_FILE = "nsfnet_routes_k3.json"


@dataclass(frozen=True)
class Workload:
    name: str
    catalog_file: str
    arrival_rate: float
    why: str
    departure_rate: float = 10.0


# A 2x2 design (load x catalog) with the light BPSK corner left out: each
# neighbouring pair differs in exactly one factor.
WORKLOADS = {w.name: w for w in (
    Workload("light_full", "bit_rates.json", 180.0,
             "18 Erlang, the paper's top load, full catalog: almost every "
             "request is accepted on its first route and option, so commit "
             "and release dominate and the block path is bypassed."),
    Workload("heavy_full", "bit_rates.json", 1500.0,
             "150 Erlang, full catalog: about 5% block after trying all "
             "three routes and every option their reach admits, so the "
             "reach filter and search kernels do the most work per request."),
    Workload("heavy_bpsk", "bit_rates_bpsk.json", 1500.0,
             "150 Erlang, BPSK only: one option up to 80 slots wide with "
             "unlimited reach, so the reach filter is idle while "
             "fragmentation and Exact Fit's run search cost the most."),
)}


class BenchSetupError(RuntimeError):
    """No result can be produced: no library sources, or a worker failed."""


def import_eonsim():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    package = SRC / "eonsim"
    if not (package / "__init__.py").is_file():
        raise BenchSetupError(f"library sources not found under {package}")
    sys.path.insert(0, str(SRC))
    import eonsim
    if Path(eonsim.__file__).resolve().parent != package:
        raise BenchSetupError(
            f"imported eonsim from {eonsim.__file__}, not from {package}")
    return eonsim


def seeds_for(eonsim, seed: int):
    """The five-stream seed vector of a workload seed.

    ``DEFAULT_SEED`` gives the library's default ``Seeds()``; any other
    seed derives five stream seeds from one Mersenne Twister.
    """
    if seed == DEFAULT_SEED:
        return eonsim.Seeds()
    rng = random.Random(seed)
    return eonsim.Seeds(*(rng.getrandbits(31) for _ in range(5)))


def read_documents(workload: Workload) -> tuple[str, str, str]:
    """The three input documents of a workload, from the bundled data."""
    from eonsim import data

    return tuple(data.data_path(name).read_text(encoding="utf-8")
                 for name in (NETWORK_FILE, ROUTES_FILE, workload.catalog_file))


def parse_documents(eonsim, texts):
    network_text, routes_text, catalog_text = texts
    network = eonsim.parse_network(network_text)
    return (network, eonsim.parse_routes(routes_text, network),
            eonsim.parse_bit_rates(catalog_text))


def build_simulator(eonsim, workload: Workload, parsed, algorithm: str,
                    seeds, goal: int, allocator=None, event_listener=None):
    """One simulator on all-free grids, as a user would set it up."""
    network, routes, catalog = parsed
    config = eonsim.SimulatorConfig(
        network=network.fresh_copy(), routes=routes, catalog=catalog,
        profile=eonsim.TrafficProfile(
            arrival_rate=workload.arrival_rate,
            departure_rate=workload.departure_rate,
            goal_connections=goal),
        seeds=seeds, strict_audit=True)
    return eonsim.Simulator(
        config, allocator or eonsim.ALGORITHMS[algorithm],
        algorithm_name=algorithm, event_listener=event_listener)


def outcome(eonsim, report, scratch_dir: Path) -> dict:
    """Counts of one finished run plus the sha256 of its ``.dat`` row."""
    path = scratch_dir / "run.dat"
    eonsim.write_dat([(report.erlang, report.blocking_probability)], path)
    return {
        "processed": report.processed,
        "accepted": report.accepted,
        "blocked": report.blocked,
        "per_bitrate": {label: list(counts)
                        for label, counts in sorted(report.per_bitrate.items())},
        "dat_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def invariant_failures(sim, report, goal: int) -> list[str]:
    """Conservation and drain checks that hold for every seed."""
    failures = []
    if report.processed != goal:
        failures.append(f"processed {report.processed} != goal {goal}")
    if report.accepted + report.blocked != report.processed:
        failures.append(f"accepted {report.accepted} + blocked {report.blocked}"
                        f" != processed {report.processed}")
    if not sim.config.network.all_grids_free():
        failures.append("grids not all free after the run")
    if sim.pending_events != 0:
        failures.append(f"{sim.pending_events} events still pending")
    if sim.live_connections:
        failures.append(f"{len(sim.live_connections)} connections still live")
    return failures


def load_expected(path: Path = EXPECTED_FILE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def recorded(expected: dict, goal: int, workload: str, algorithm: str,
             seed: int) -> dict | None:
    """Recorded results for a run, or None when the seed has none."""
    if seed != DEFAULT_SEED:
        return None
    return expected.get("goals", {}).get(str(goal), {}).get(
        workload, {}).get(algorithm)


def mismatches(result: dict, reference: dict | None) -> list[str]:
    """Every field of ``reference`` that ``result`` has and gets wrong."""
    if reference is None:
        return []
    return [f"{key}: got {result[key]!r}, recorded {value!r}"
            for key, value in reference.items()
            if key in result and result[key] != value]
