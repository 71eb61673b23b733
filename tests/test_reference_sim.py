"""The engine and the bundled algorithms against ``reference_sim``, run by run.

Each instance is a small random network (2-7 nodes, one slot count of 63,
64 or 65), 1-3 routes per ordered pair, integer link lengths, and a
catalog whose reaches are route lengths, so that a route exactly as long as
a reach occurs.  Every second instance rounds each exponential draw to the
nearest multiple of 1/64 in both simulators, which makes departures and
arrivals meet at equal times.  For FF, EF and FLF the per-request outcomes, the
final counts and the drain must be equal.
"""

import random

import pytest

import eonsim
from eonsim import (
    ALLOCATED,
    Seeds,
    Simulator,
    SimulatorConfig,
    TrafficProfile,
    exact_fit,
    first_fit,
    first_last_fit,
)
from eonsim.traffic import next_exponential

import reference_sim

POLICIES = {"FF": first_fit, "EF": exact_fit, "FLF": first_last_fit}
INSTANCES = range(12)
GOAL = 250
QUANTUM = 1 / 64


def on_grid(draw):
    """``draw`` rounded to a multiple of ``QUANTUM``, so sums of draws are exact."""
    def rounded(stream, rate):
        return QUANTUM * round(draw(stream, rate) / QUANTUM)
    return rounded


def simple_paths(neighbours, src, dst):
    paths, stack = [], [[src]]
    while stack:
        path = stack.pop()
        if path[-1] == dst:
            paths.append(path)
            continue
        stack.extend(path + [node] for node in sorted(neighbours[path[-1]])
                     if node not in path)
    return sorted(paths)


def random_instance(seed):
    rng = random.Random(seed)
    node_count = rng.randint(2, 7)
    slot_count = (63, 64, 65)[seed % 3]
    edges = {(node, node + 1) for node in range(node_count - 1)}
    edges |= {(a, b) for a in range(node_count) for b in range(a + 2, node_count)
              if rng.random() < 0.4}
    links, neighbours = [], {node: set() for node in range(node_count)}
    for a, b in sorted(edges):
        links += [(a, b, rng.randint(1, 9), slot_count),
                  (b, a, rng.randint(1, 9), slot_count)]
        neighbours[a].add(b)
        neighbours[b].add(a)
    network = eonsim.Network.build(f"random-{seed}", node_count, links)
    routes = eonsim.RouteSet()
    for src in range(node_count):
        for dst in range(node_count):
            if src != dst:
                paths = simple_paths(neighbours, src, dst)
                for path in rng.sample(paths, min(rng.randint(1, 3), len(paths))):
                    routes.add_node_path(network, path)
    lengths = sorted({route.length_km for pair in routes.pairs()
                      for route in routes.routes_for(*pair)})
    entries = []
    for bitrate in sorted(rng.sample([10, 40, 100, 400], rng.randint(2, 4))):
        reaches = [rng.choice(lengths) for _ in range(rng.randint(1, 4))]
        reaches[rng.randrange(len(reaches))] = lengths[-1]  # covers every route
        options = [eonsim.ModulationOption(f"m{i}", rng.randint(1, 8), reach)
                   for i, reach in enumerate(reaches)]
        entries.append(eonsim.BitRateEntry(float(bitrate), str(bitrate),
                                           tuple(options)))
    catalog = eonsim.BitRateCatalog(entries)
    mean_hops = sum(len(route.link_ids) for pair in routes.pairs()
                    for route in routes.routes_for(*pair)) / sum(
        len(routes.routes_for(*pair)) for pair in routes.pairs())
    mean_width = sum(option.slot_count for entry in entries
                     for option in entry.options) / sum(
        len(entry.options) for entry in entries)
    erlang = rng.uniform(0.8, 1.6) * len(links) * slot_count / (
        mean_width * mean_hops)
    profile = TrafficProfile(arrival_rate=erlang, departure_rate=1.0,
                             goal_connections=GOAL)
    seeds = Seeds(*(rng.randrange(2**31) for _ in range(5)))
    return network, routes, catalog, profile, seeds


def engine_run(network, routes, catalog, profile, seeds, allocator):
    outcomes = []

    def recording(ctx):
        verdict = allocator(ctx)
        if verdict is ALLOCATED:
            link_ids = tuple(link_id for link_id, _, _ in ctx.staged)
            route = next(index for index in range(ctx.route_count())
                         if ctx.route_link_ids(index) == link_ids)
            _, start, stop = ctx.staged[0]
            outcomes.append(("allocated", route, start, stop - start))
        else:
            outcomes.append(("blocked", None, None, None))
        return verdict

    sim = Simulator(SimulatorConfig(network=network, routes=routes, catalog=catalog,
                                    profile=profile, seeds=seeds), recording)
    sim.init()
    report = sim.run()
    counts = (report.processed, report.accepted, report.blocked, report.per_bitrate)
    return outcomes, counts, sim.config.network.all_grids_free()


@pytest.mark.parametrize("seed", INSTANCES)
def test_engine_matches_the_reference(seed, monkeypatch):
    instance = random_instance(seed)
    draw = reference_sim.exponential
    if seed % 2:
        draw = on_grid(draw)
        monkeypatch.setattr(eonsim.engine, "next_exponential",
                            on_grid(next_exponential))
    for policy, allocator in POLICIES.items():
        expected = reference_sim.run(*instance, policy, draw=draw)
        outcomes, counts, drained = engine_run(*instance, allocator)
        assert drained and expected[2]
        assert 0.01 <= counts[2] / counts[0] <= 0.5, (policy, counts)
        assert counts == expected[1], policy
        assert outcomes == expected[0], policy
