"""Bit-identity gate: the benchmark's workloads reproduce their recorded runs.

Each NSFNet workload of ``bench/`` is run with FF, EF and FLF at the
default seeds and compared with the results recorded in
``bench/expected.json`` for 2000 requests: the counts and the placement
digest, a sha256 over ``repr(ctx.staged)`` of every accepted request,
hashed as the benchmark's tracer hashes it.  A faster search or grid that
moves a single placement fails here.  Each workload x algorithm runs twice
on one parsed route set and catalog, each time on a fresh copy of the
network, so state a run leaves behind in either would show as a mismatch.
"""

import hashlib
import json
from pathlib import Path

import pytest

import eonsim
from eonsim import data

EXPECTED_FILE = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
GOAL = 2000

#: name -> (catalog document, arrival rate); departure rate 10 throughout.
WORKLOADS = {
    "light_full": ("bit_rates.json", 180.0),
    "heavy_full": ("bit_rates.json", 1500.0),
    "heavy_bpsk": ("bit_rates_bpsk.json", 1500.0),
}


@pytest.fixture(scope="module")
def recorded():
    goals = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))["goals"]
    return goals[str(GOAL)]


@pytest.mark.parametrize("algorithm", ["FF", "EF", "FLF"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_matches_recorded_run(workload, algorithm, recorded,
                                       nsfnet, nsfnet_routes):
    catalog_file, arrival_rate = WORKLOADS[workload]
    catalog = eonsim.load_bit_rates(data.data_path(catalog_file))
    allocator = eonsim.ALGORITHMS[algorithm]
    expected = recorded[workload][algorithm]

    for _ in range(2):
        digest = hashlib.sha256()

        def recording(ctx):
            verdict = allocator(ctx)
            if verdict is eonsim.ALLOCATED:
                digest.update(repr(ctx.staged).encode())
                digest.update(b";")
            return verdict

        config = eonsim.SimulatorConfig(
            network=nsfnet.fresh_copy(), routes=nsfnet_routes, catalog=catalog,
            profile=eonsim.TrafficProfile(arrival_rate=arrival_rate,
                                          departure_rate=10.0,
                                          goal_connections=GOAL),
            seeds=eonsim.Seeds(), strict_audit=True)
        sim = eonsim.Simulator(config, recording, algorithm_name=algorithm)
        sim.init()
        report = sim.run()

        assert report.processed == expected["processed"]
        assert report.accepted == expected["accepted"]
        assert report.blocked == expected["blocked"]
        assert ({label: list(counts) for label, counts in report.per_bitrate.items()}
                == expected["per_bitrate"])
        assert digest.hexdigest() == expected["placement_sha256"]
