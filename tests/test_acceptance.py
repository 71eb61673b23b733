"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
the full grid of simulations takes a few minutes.
"""

import itertools
import random

import pytest

import eonsim
from eonsim import (
    ALLOCATED,
    SearchDirection,
    Simulator,
    SimulatorConfig,
    TrafficProfile,
    data,
    exact_free_block,
    first_free_block,
    sweep_reports,
    write_dat,
)
from eonsim.errors import AuditViolationError

from conftest import mask_of

GOAL_GRID = 100_000
LAMBDAS = (18, 90, 180)
ALGS = ("FF", "EF", "FLF")
SCENARIOS = ("1r-bpsk", "3r-bpsk", "3r-mod")

# Erlang-B for 10 servers at 5 Erlang, from the recursion below.
ERLANG_B_10_5 = 0.01838457033664814


def verdict(number, name, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def erlang_b(servers: int, offered: float) -> float:
    blocking = 1.0
    for n in range(1, servers + 1):
        blocking = offered * blocking / (n + offered * blocking)
    return blocking


# -- expensive shared runs -----------------------------------------------------

@pytest.fixture(scope="module")
def bundle():
    network = data.load_nsfnet()
    routes3 = data.load_nsfnet_routes(network)
    return {
        "network": network,
        "routes": {"1r": routes3.truncated(1), "3r": routes3},
        "catalogs": {"bpsk": data.load_bpsk_bit_rates(),
                     "mod": data.load_bit_rates()},
    }


def run_to_drain(config, algorithm):
    """One run, in a pool worker: its report and whether its grids drained."""
    sim = Simulator(config, eonsim.ALGORITHMS[algorithm], algorithm_name=algorithm)
    sim.init()
    report = sim.run()
    return {"report": report, "drained": sim.config.network.all_grids_free()}


def loss_system_config():
    """Symmetric 2-node network, 10 slots per directed link, goal 1e6.

    Source/destination sampling is uniform over the two ordered pairs, so
    each 10-slot link is an independent loss system offered
    (lambda / 2) / mu = 5 Erlang; the pooled blocking estimates B(10, 5).
    """
    network = eonsim.Network.build(
        "loss", 2, [(0, 1, 10.0, 10), (1, 0, 10.0, 10)])
    routes = eonsim.RouteSet()
    routes.add_node_path(network, [0, 1])
    routes.add_node_path(network, [1, 0])
    catalog = eonsim.BitRateCatalog([eonsim.BitRateEntry(
        10.0, "10", (eonsim.ModulationOption("BPSK", 1, 1e9),))])
    return SimulatorConfig(
        network=network, routes=routes, catalog=catalog,
        profile=TrafficProfile(arrival_rate=100.0, departure_rate=10.0,
                               goal_connections=1_000_000))


@pytest.fixture(scope="module")
def pooled_runs(bundle):
    """The loss-system run and the grid runs, queued on a 2-process pool.

    The longest run goes first.  The pool is shut down at the end of the
    module, and a run still queued then, as after a failed run, is
    cancelled.
    """
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=2)
    try:
        loss = pool.submit(run_to_drain, loss_system_config(), "FF")
        grid = {}
        for alg, scenario, lam in itertools.product(ALGS, SCENARIOS, LAMBDAS):
            route_key, catalog_key = scenario.split("-")
            config = SimulatorConfig(
                network=bundle["network"],
                routes=bundle["routes"][route_key],
                catalog=bundle["catalogs"][catalog_key],
                profile=TrafficProfile(arrival_rate=lam, departure_rate=10,
                                       goal_connections=GOAL_GRID))
            grid[(alg, scenario, lam)] = pool.submit(run_to_drain, config, alg)
        yield loss, grid
    finally:
        pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="module")
def grid_runs(pooled_runs):
    """27 runs: every algorithm x scenario x load, goal 1e5, same seeds."""
    return {key: future.result() for key, future in pooled_runs[1].items()}


@pytest.fixture(scope="module")
def loss_system_run(pooled_runs):
    """FF on :func:`loss_system_config`."""
    return pooled_runs[0].result()


# -- criteria -------------------------------------------------------------------

def test_criterion_1_erlang_b_cross_check(loss_system_run):
    def check():
        target = erlang_b(10, 5.0)
        assert target == pytest.approx(ERLANG_B_10_5, rel=1e-12)
        measured = loss_system_run["report"].blocking_probability
        assert abs(measured - target) / target <= 0.05, (measured, target)

    verdict(1, "Erlang-B analytic cross-check", check)


def test_criterion_2_slot_search_oracle_equivalence():
    def brute_first(cells, size, high_to_low):
        starts = [i for i in range(len(cells) - size + 1)
                  if not any(cells[i:i + size])]
        if not starts:
            return None
        return starts[-1] if high_to_low else starts[0]

    def brute_exact(cells, size):
        i, runs = 0, []
        while i < len(cells):
            if not cells[i]:
                j = i
                while j < len(cells) and not cells[j]:
                    j += 1
                runs.append((i, j))
                i = j
            else:
                i += 1
        return next((start for start, stop in runs if stop - start == size), None)

    def check():
        rng = random.Random(424242)
        mismatches = 0
        for _ in range(1_500):
            n = rng.randint(1, 16)
            cells = [rng.random() < rng.choice((0.15, 0.5, 0.85))
                     for _ in range(n)]
            size = rng.randint(1, n)
            occupancy = mask_of(cells)
            for direction, high in ((SearchDirection.LOW_TO_HIGH, False),
                                    (SearchDirection.HIGH_TO_LOW, True)):
                block = first_free_block(occupancy, n, size, direction)
                if (block.start if block else None) != brute_first(cells, size, high):
                    mismatches += 1
            block = exact_free_block(occupancy, n, size)
            if (block.start if block else None) != brute_exact(cells, size):
                mismatches += 1
        assert mismatches == 0

    verdict(2, "slot-search oracle equivalence", check)


def test_criterion_3_blocking_curve_orderings(grid_runs):
    def blocking(alg, scenario, lam):
        return grid_runs[(alg, scenario, lam)]["report"].blocking_probability

    def check():
        for alg in ALGS:
            for scenario in SCENARIOS:
                curve = [blocking(alg, scenario, lam) for lam in LAMBDAS]
                assert curve == sorted(curve), (alg, scenario, curve)
            for lam in LAMBDAS:
                assert blocking(alg, "3r-bpsk", lam) <= blocking(alg, "1r-bpsk", lam), \
                    (alg, lam)
                with_mod = blocking(alg, "3r-mod", lam)
                bpsk_only = blocking(alg, "3r-bpsk", lam)
                assert with_mod < bpsk_only or with_mod == bpsk_only == 0.0, \
                    (alg, lam, with_mod, bpsk_only)
        # rising load must strictly raise First Fit blocking
        assert blocking("FF", "1r-bpsk", 180) > blocking("FF", "1r-bpsk", 18)
        assert blocking("FF", "3r-mod", 180) > blocking("FF", "3r-mod", 18)

    verdict(3, "blocking-curve orderings across loads, routes, catalogs", check)


def test_criterion_4_drain_and_conservation(grid_runs, loss_system_run):
    def check():
        entries = list(grid_runs.values()) + [loss_system_run]
        for entry in entries:
            report = entry["report"]
            assert entry["drained"], report.algorithm
            assert report.accepted + report.blocked == report.processed
            assert report.processed == report.goal_connections

    verdict(4, "drain and conservation invariants", check)


def test_criterion_5_determinism(bundle, tmp_path):
    def sweep_once(name):
        config = SimulatorConfig(
            network=bundle["network"],
            routes=bundle["routes"]["3r"],
            catalog=bundle["catalogs"]["mod"],
            profile=TrafficProfile(arrival_rate=18, departure_rate=10,
                                   goal_connections=10_000))
        reports = sweep_reports(config, [18, 90], eonsim.first_fit,
                                algorithm_name="FF")
        path = tmp_path / name
        write_dat([(report.erlang, report.blocking_probability)
                   for report in reports], path)
        return path.read_bytes()

    def check():
        assert sweep_once("first.dat") == sweep_once("second.dat")
        for field in eonsim.Seeds._fields:
            config = SimulatorConfig(
                network=bundle["network"],
                routes=bundle["routes"]["3r"],
                catalog=bundle["catalogs"]["bpsk"],
                profile=TrafficProfile(arrival_rate=120, departure_rate=10,
                                       goal_connections=5_000),
                seeds=eonsim.Seeds(**{field: 99991}))
            sim = Simulator(config, eonsim.first_fit, algorithm_name="FF")
            sim.init()
            report = sim.run()
            assert report.accepted + report.blocked == report.processed == 5_000
            assert sim.config.network.all_grids_free(), field

    verdict(5, "determinism and seed isolation", check)


def test_criterion_6_strict_audit_soundness(bundle, grid_runs):
    def run_adversary(allocator):
        config = SimulatorConfig(
            network=bundle["network"],
            routes=bundle["routes"]["3r"],
            catalog=bundle["catalogs"]["bpsk"],
            profile=TrafficProfile(goal_connections=10))
        sim = Simulator(config, allocator)
        sim.init()
        with pytest.raises(AuditViolationError):
            sim.run()
        assert sim.config.network.all_grids_free()

    def non_contiguous(ctx):
        link = ctx.route_link_ids(0)[0]
        ctx.alloc_slots(link, 0, 2)
        ctx.alloc_slots(link, 4, 6)
        return ALLOCATED

    def discontinuous(ctx):
        # identical width but shifted intervals across the route's links
        for offset, link in enumerate(ctx.route_link_ids(0)):
            ctx.alloc_slots(link, offset, offset + 4)
        if ctx.link_count_in_route(0) == 1:
            ctx.alloc_slots(ctx.route_link_ids(0)[0], 10, 13)
        return ALLOCATED

    def check():
        run_adversary(non_contiguous)
        run_adversary(discontinuous)
        # the bundled algorithms finished every strict-audit grid run
        assert len(grid_runs) == len(ALGS) * len(SCENARIOS) * len(LAMBDAS)
        assert all(entry["report"].strict_audit for entry in grid_runs.values())

    verdict(6, "strict-audit soundness", check)


def test_criterion_7_fixture_fidelity(bundle):
    reaches = {"BPSK": 5520, "QPSK": 2720, "8-QAM": 1360,
               "16-QAM": 560, "32-QAM": 240, "64-QAM": 80}
    slot_needs = {
        "10": {"64-QAM": 1, "32-QAM": 1, "16-QAM": 1, "8-QAM": 1, "QPSK": 1, "BPSK": 1},
        "40": {"64-QAM": 1, "32-QAM": 1, "16-QAM": 1, "8-QAM": 2, "QPSK": 2, "BPSK": 4},
        "100": {"64-QAM": 2, "32-QAM": 2, "16-QAM": 2, "8-QAM": 3, "QPSK": 4, "BPSK": 8},
        "400": {"64-QAM": 6, "32-QAM": 7, "16-QAM": 8, "8-QAM": 11, "QPSK": 16, "BPSK": 32},
        "1000": {"64-QAM": 14, "32-QAM": 16, "16-QAM": 20, "8-QAM": 27, "QPSK": 40, "BPSK": 80},
    }

    def check():
        network = bundle["network"]
        assert network.node_count == 14
        assert len(network.links) == 42
        assert all(link.slot_count == 320 for link in network.links)
        catalog = bundle["catalogs"]["mod"]
        assert len(catalog) == 5
        checked = 0
        for entry in catalog:
            assert len(entry.options) == 6
            for option in entry.options:
                assert option.reach_km == reaches[option.modulation]
                assert option.slot_count == slot_needs[entry.label][option.modulation]
                checked += 1
        assert checked == 30

    verdict(7, "fixture fidelity", check)
