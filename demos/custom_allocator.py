"""Writing your own allocation algorithm.

An algorithm is a plain function taking the per-request context and
returning ALLOCATED or NOT_ALLOCATED.  Slot ranges are *staged* with
ctx.alloc_slots(); the engine commits them only when the verdict is
ALLOCATED, so returning NOT_ALLOCATED after staging can never leak slots.

The example below is a "widest fit": it places each request in the middle
of the largest joint free block of the first route that fits, and keeps a
private statistic on the side.  It is deliberately simple, not good -- the
point is the shape of the code.

It reads the route's joint grid through ``intersection_grid``: an ``int``
bitmask in which bit i is set when slot i is occupied on any link.
"""

import eonsim
from eonsim import ALLOCATED, NOT_ALLOCATED, data
from eonsim.algorithms import FreeBlock, intersection_grid

hop_histogram = {}  # private statistics live in plain module/closure state


def widest_free_block(grid, slot_count):
    """Lowest of the longest runs of free slots, or None if all are taken."""
    best = None
    free = ((1 << slot_count) - 1) & ~grid  # bit i set when slot i is free
    while free:
        start = (free & -free).bit_length() - 1  # lowest free slot
        run = free >> start
        length = (run & ~(run + 1)).bit_length()  # its trailing set bits
        if best is None or length > best.length:
            best = FreeBlock(start, start + length)
        free &= ~(((1 << length) - 1) << start)  # drop this run
    return best


def widest_fit(ctx):
    need = ctx.request_slots(0)  # single-option catalog in this demo
    for route in range(ctx.route_count()):
        slot_count = ctx.link_in_route(route, 0).slot_count
        best = widest_free_block(intersection_grid(ctx, route), slot_count)
        if best is None or best.length < need:
            continue

        start = best.start + (best.length - need) // 2
        for link_id in ctx.route_link_ids(route):
            ctx.alloc_slots(link_id, start, start + need)
        hops = ctx.link_count_in_route(route)
        hop_histogram[hops] = hop_histogram.get(hops, 0) + 1
        return ALLOCATED
    return NOT_ALLOCATED


if __name__ == "__main__":
    network = data.load_nsfnet()
    config = eonsim.SimulatorConfig(
        network=network,
        routes=data.load_nsfnet_routes(network),
        catalog=data.load_bpsk_bit_rates(),
        profile=eonsim.TrafficProfile(departure_rate=10.0, goal_connections=20_000),
    )
    # workers=1 runs in this process: with worker processes, hop_histogram
    # would be filled in the workers and stay empty here.
    [mine] = eonsim.sweep_reports(config, [160.0], widest_fit,
                                  algorithm_name="widest", workers=1)
    [reference] = eonsim.sweep_reports(config, [160.0], eonsim.first_fit,
                                       algorithm_name="FF", workers=1)
    print(f"widest fit blocking : {mine.blocking_probability:.4e}")
    print(f"first fit blocking  : {reference.blocking_probability:.4e}")
    print(f"hops of accepted connections (widest fit): {sorted(hop_histogram.items())}")
