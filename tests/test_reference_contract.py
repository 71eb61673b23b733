"""Random allocators against ``reference_contract``, one request at a time.

Each instance is a bidirectional ring of 3-5 nodes with 6-12 slots per
link, random background occupancy, one or two routes per ordered pair and
one bitrate with 1-3 options.  A seeded random allocator reads by index,
stages 0-6 ranges (in or out of bounds, on or off the route, equal or
unequal, overlapping or not, now and then with a ``float`` bound), now and
then calls ``commit_staged()`` itself, and returns ``ALLOCATED``,
``NOT_ALLOCATED`` or something else.  The engine must raise the model's
class at the model's step, leave every grid as it was after any failure,
and after a success hold the model's grids.  Whole runs of a random valid
allocator on the same instances must drain back to the background
occupancy.
"""

import dataclasses
import random

import pytest

import eonsim
from eonsim import (
    BitRateCatalog,
    BitRateEntry,
    EventKind,
    ModulationOption,
    Seeds,
    Simulator,
    SimulatorConfig,
    TrafficProfile,
)
from eonsim.algorithms import intersection_grid
from eonsim.errors import (
    AllocatorFaultError,
    AuditViolationError,
    CommitConflictError,
    NoSuchLinkError,
    OutOfBoundsError,
    StagedOverlapError,
)

import reference_contract
from reference_contract import ALLOCATED, NOT_ALLOCATED

INSTANCES = range(300)
VERDICTS = {ALLOCATED: eonsim.ALLOCATED, NOT_ALLOCATED: eonsim.NOT_ALLOCATED}
BAD_VERDICTS = [None, True, "allocated"]


def ring_config(rng, strict_audit, seed):
    """A ring with background occupancy; returns the config and its grids."""
    nodes = rng.randint(3, 5)
    slots = rng.randint(6, 12)
    links = []
    for a in range(nodes):
        b = (a + 1) % nodes
        links += [(a, b, 1.0, slots), (b, a, 1.0, slots)]
    network = eonsim.Network.build("ring", nodes, links)
    routes = eonsim.RouteSet()
    for src in range(nodes):
        for dst in range(nodes):
            if src != dst:
                clockwise = [(src + i) % nodes for i in range((dst - src) % nodes + 1)]
                counter = [(src - i) % nodes for i in range((src - dst) % nodes + 1)]
                routes.add_node_path(network, clockwise)
                routes.add_node_path(network, counter)
    if rng.random() < 0.3:
        routes = routes.truncated(1)
    busy = rng.choice([0.0, 0.25, 0.5])
    grids = []
    for link in network.links:
        grid = [rng.random() < busy for _ in range(slots)]
        for slot, occupied in enumerate(grid):
            if occupied:
                link.occupy_slots(slot, slot + 1)
        grids.append(grid)
    options = tuple(ModulationOption(f"m{i}", i + 1, 1e6)
                    for i in range(rng.randint(1, 3)))
    config = SimulatorConfig(
        network=network, routes=routes,
        catalog=BitRateCatalog([BitRateEntry(100.0, "100", options)]),
        profile=TrafficProfile(goal_connections=1),
        seeds=Seeds(*(5 * seed + k for k in range(5))),
        strict_audit=strict_audit)
    return config, grids


def random_call(rng, grids, routes, option_count, route, start, width):
    slots = len(grids[0])
    kind = rng.random()
    if kind < 0.1:
        return ("link_in_route", rng.randint(-1, len(routes)), rng.randint(-1, 3))
    if kind < 0.15:
        return ("route_link_ids", rng.randint(-1, len(routes)))
    if kind < 0.2:
        return ("request_slots", rng.randint(-1, option_count))
    if kind < 0.25:
        return ("commit_staged",)
    link = rng.choice(route) if rng.random() < 0.7 else rng.randint(-1, len(grids))
    low = rng.randrange(slots)
    bounds = rng.choice([
        (start, start + width),                           # the same interval
        (start + width, start + width + 1),               # adjacent on the right
        (start - 1, start),                               # adjacent on the left
        (low, rng.randint(low + 1, slots)),               # any in bounds
        (slots - 1, slots + 1), (-1, 1), (start, start),  # out of bounds or empty
        (float(start), start + width),                    # a non-int bound
    ])
    return ("alloc_slots", link, *bounds)


def random_request(rng, grids, routes, option_count):
    """The calls and the verdict of one random allocator invocation."""
    slots = len(grids[0])
    route = rng.choice(routes)
    width = rng.randint(1, 3)
    free = [s for s in range(slots - width + 1)
            if not any(grids[link][t] for link in route for t in range(s, s + width))]
    if free and rng.random() < 0.7:
        start = rng.choice(free)
    else:
        start = rng.randrange(slots - width + 1)
    calls = [("alloc_slots", link, start, start + width) for link in route]
    if rng.random() < 0.15:
        calls = []
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        calls.insert(rng.randrange(len(calls) + 1),
                     random_call(rng, grids, routes, option_count, route, start, width))
    verdict = rng.choices([ALLOCATED, NOT_ALLOCATED, rng.choice(BAD_VERDICTS)],
                          weights=[75, 15, 10])[0]
    return calls[:6], verdict


class RandomAllocator:
    """Draws a request for the pair it is given, makes its calls, returns its verdict."""

    def __init__(self, rng, config, grids):
        self.rng = rng
        self.config = config
        self.grids = grids
        self.failed = None  # (step, class) of a context call that raised

    def __call__(self, ctx):
        self.routes = [list(route.link_ids)
                       for route in self.config.routes.routes_for(ctx.src, ctx.dst)]
        self.calls, self.verdict = random_request(
            self.rng, self.grids, self.routes, len(self.config.catalog[0].options))
        for step, (method, *args) in enumerate(self.calls):
            try:
                getattr(ctx, method)(*args)
            except Exception as err:
                self.failed = (step, type(err))
                raise
        return VERDICTS.get(self.verdict, self.verdict)


def grids_of(network):
    return [[bool(link.occupancy >> slot & 1) for slot in range(link.slot_count)]
            for link in network.links]


def run_one(seed, strict_audit):
    """The engine's outcome, the model's and the allocator of one random request."""
    rng = random.Random(seed)
    config, grids = ring_config(rng, strict_audit, seed)
    allocator = RandomAllocator(rng, config, grids)
    after_arrival = []

    def snapshot(sim, event):
        if event.kind is EventKind.ARRIVAL:
            after_arrival.append(grids_of(sim.config.network))

    sim = Simulator(config, allocator, event_listener=snapshot)
    sim.init()
    try:
        report = sim.run()
    except AllocatorFaultError as err:
        assert grids_of(sim.config.network) == grids, "a failure changed a grid"
        if allocator.failed is not None:
            step, cls = allocator.failed
            # A context call's AllocatorFaultError passes through as it is;
            # any other error is the cause of one.
            cause = err if cls is AllocatorFaultError else err.__cause__
            assert type(err) is AllocatorFaultError and type(cause) is cls
            seen = ("raise", step, cls)
        else:
            seen = ("raise", len(allocator.calls), type(err))
    else:
        assert report.accepted == (allocator.verdict == ALLOCATED)
        seen = ("grids", after_arrival[0])
    expected = reference_contract.outcome(
        grids, allocator.routes, len(config.catalog[0].options), allocator.calls,
        allocator.verdict, strict_audit)
    return seen, expected, allocator


@pytest.mark.parametrize("strict_audit", [True, False], ids=["audit-on", "audit-off"])
def test_random_allocators_follow_the_contract(strict_audit):
    kinds = set()
    for seed in INSTANCES:
        seen, expected, allocator = run_one(seed, strict_audit)
        assert seen == expected, (seed, allocator.calls, allocator.verdict)
        kinds.add(expected[2] if expected[0] == "raise"
                  else "accepted" if allocator.verdict == ALLOCATED else "blocked")
        if expected[0] == "raise" and expected[1] < len(allocator.calls):
            kinds.add(allocator.calls[expected[1]][0])  # the call that failed
    # The generator reaches every outcome, so a pass means something.
    wanted = {NoSuchLinkError, OutOfBoundsError, StagedOverlapError,
              CommitConflictError, AllocatorFaultError, "accepted", "blocked",
              "commit_staged"}
    if strict_audit:
        wanted.add(AuditViolationError)
    assert wanted <= kinds


class RandomValidAllocator:
    """Places a width on a random free interval of a random route, or blocks."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def __call__(self, ctx):
        route = self.rng.randrange(ctx.route_count())
        width = ctx.request_slots(self.rng.randrange(ctx.option_count()))
        occupied = intersection_grid(ctx, route)
        window = (1 << width) - 1
        starts = [start for start in range(ctx.link_in_route(route, 0).slot_count
                                           - width + 1)
                  if not occupied >> start & window]
        if not starts:
            return eonsim.NOT_ALLOCATED
        start = self.rng.choice(starts)
        for link_id in ctx.route_link_ids(route):
            ctx.alloc_slots(link_id, start, start + width)
        return eonsim.ALLOCATED


@pytest.mark.parametrize("strict_audit", [True, False], ids=["audit-on", "audit-off"])
def test_whole_runs_of_a_valid_random_allocator_drain(strict_audit):
    goal = 300
    for seed in range(10):
        config, grids = ring_config(random.Random(seed), strict_audit, seed)
        config = dataclasses.replace(config, profile=TrafficProfile(
            arrival_rate=30.0, departure_rate=10.0, goal_connections=goal))
        sim = Simulator(config, RandomValidAllocator(seed))
        sim.init()
        report = sim.run()
        assert report.accepted + report.blocked == goal
        assert report.accepted > 0
        assert sim.live_connections == {}
        assert grids_of(sim.config.network) == grids
