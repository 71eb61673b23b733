"""A reference simulator, slow and plain on purpose: the whole-run oracle.

It is written from the README's contract, not from ``eonsim.engine``, and
shares no code with the engine, the allocation context or the bundled
algorithms.  The events sit in one sorted list, each grid is a list of
booleans, and every search is a linear scan.  From eonsim it takes only the
input models (network, routes, catalog, profile, seeds) and
:class:`~eonsim.traffic.RngStreams`, whose five seeded ``random.Random``
streams it draws as the contract says:

- arrival: the first arrival time, then one inter-arrival time after every
  request but the last;
- departure: one holding time per accepted request, drawn only on
  acceptance, so a blocked request draws none;
- source and destination: the pair, the destination redrawn until it
  differs from the source;
- bitrate: the catalog index.

An exponential time is ``-ln(U)/rate`` from ``random()``, a zero ``U``
redrawn.  A uniform integer in ``[0, count)`` takes ``(count - 1)
.bit_length()`` bits from ``getrandbits`` and redraws values ``>= count``.

At equal times departures go before the arrival, in the order they were
scheduled, so spectrum is freed before a competing request is evaluated.

The policies follow the README's account of the bundled algorithms.  Routes
are tried in order; within a route, every option whose reach is at least
the route length, in catalog order.  A width fits at ``start`` when slots
``start .. start + width - 1`` are free on every link of the route.  FF
takes the lowest fitting start.  EF takes the lowest start of a maximal
free run of exactly that width (its neighbours occupied or off the grid),
else the lowest fitting start.  FLF takes the highest fitting start for a
bitrate of at least 100 Gbps, else the lowest.
"""

from __future__ import annotations

import bisect
import itertools
import math

from eonsim.traffic import RngStreams

DEPARTURE, ARRIVAL = 0, 1  # at equal times the lower kind goes first
FLF_THRESHOLD_GBPS = 100.0


def exponential(stream, rate):
    u = stream.random()
    while u == 0.0:
        u = stream.random()
    return -math.log(u) / rate


def uniform(stream, count):
    bits = (count - 1).bit_length()
    while True:
        value = stream.getrandbits(bits)
        if value < count:
            return value


def free_run_lengths(grids, link_ids):
    """``runs[s]``: slots free on every link of the route from ``s`` on."""
    slot_count = len(grids[link_ids[0]])
    runs = [0] * (slot_count + 1)
    for slot in range(slot_count - 1, -1, -1):
        if not any(grids[link_id][slot] for link_id in link_ids):
            runs[slot] = runs[slot + 1] + 1
    return runs


def place(policy, runs, width, high):
    """The start the policy picks for ``width`` on the route, or None."""
    fits = [start for start in range(len(runs) - 1) if runs[start] >= width]
    if not fits:
        return None
    if policy == "EF":
        for start in fits:
            if runs[start] == width and (start == 0 or runs[start - 1] == 0):
                return start
    return fits[-1] if high else fits[0]


def allocate(policy, network, routes, grids, entry):
    """``(route index, start, width)`` of the placement, or None if blocked."""
    high = policy == "FLF" and entry.bitrate_gbps >= FLF_THRESHOLD_GBPS
    for index, route in enumerate(routes):
        length = sum(network.links[link_id].length_km for link_id in route.link_ids)
        runs = free_run_lengths(grids, route.link_ids)
        for option in entry.options:
            if option.reach_km >= length:
                start = place(policy, runs, option.slot_count, high)
                if start is not None:
                    return index, start, option.slot_count
    return None


def run(network, routes, catalog, profile, seeds, policy, draw=exponential):
    """One run of ``policy`` ("FF", "EF" or "FLF").

    Returns the per-request ``(verdict, route index, start, width)`` list
    (``None`` for the last three of a blocked request), the counts
    ``(processed, accepted, blocked, per_bitrate)`` and whether every grid
    ended free.  ``draw(stream, rate)`` gives each exponential time.
    """
    streams = RngStreams(seeds)
    grids = [[False] * link.slot_count for link in network.links]
    order = itertools.count()
    events = [(draw(streams.arrival, profile.arrival_rate), ARRIVAL, next(order), None)]
    outcomes = []
    per_bitrate = {entry.label: [0, 0] for entry in catalog}
    while events:
        time, kind, _, holding = events.pop(0)
        if kind == DEPARTURE:
            link_ids, start, stop = holding
            for link_id in link_ids:
                for slot in range(start, stop):
                    assert grids[link_id][slot], "released a free slot"
                    grids[link_id][slot] = False
            continue
        src = uniform(streams.source, network.node_count)
        dst = uniform(streams.destination, network.node_count)
        while dst == src:
            dst = uniform(streams.destination, network.node_count)
        entry = catalog[uniform(streams.bitrate, len(catalog))]
        candidates = routes.routes_for(src, dst)
        assert candidates, f"no routes for pair ({src}, {dst})"
        placed = allocate(policy, network, candidates, grids, entry)
        per_bitrate[entry.label][0] += 1
        if placed is None:
            per_bitrate[entry.label][1] += 1
            outcomes.append(("blocked", None, None, None))
        else:
            index, start, width = placed
            link_ids = candidates[index].link_ids
            for link_id in link_ids:
                for slot in range(start, start + width):
                    assert not grids[link_id][slot], "occupied a taken slot"
                    grids[link_id][slot] = True
            departs = time + draw(streams.departure, profile.departure_rate)
            bisect.insort(events, (departs, DEPARTURE, next(order),
                                   (link_ids, start, start + width)))
            outcomes.append(("allocated", index, start, width))
        if len(outcomes) < profile.goal_connections:
            arrives = time + draw(streams.arrival, profile.arrival_rate)
            bisect.insort(events, (arrives, ARRIVAL, next(order), None))
    blocked = sum(verdict == "blocked" for verdict, _, _, _ in outcomes)
    counts = (len(outcomes), len(outcomes) - blocked, blocked, per_bitrate)
    drained = not any(any(grid) for grid in grids)
    return outcomes, counts, drained
