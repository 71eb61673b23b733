"""Bundled spectrum-assignment policies: First Fit, Exact Fit, First-Last Fit.

All three share one search: OR the route's link grids into a joint
occupancy (a slot is free only if free on every link), find a placement of
the required width in it, and stage the winning interval on every link of
the route with one :meth:`~eonsim.allocation.AllocationContext.place`.
Routes are tried in their file order; within a route, the modulation
options admissible for the route length are tried fewest-slots-first.
Because the same interval is staged on every link, accepted connections
satisfy the continuity and contiguity constraints by construction.

Grids are ``int`` bitmasks (see :mod:`eonsim.network`), and the search
reads the request's memoised plan (:class:`~eonsim.allocation.RoutePlan`)
and the link masks directly.  Windows of ``size`` free slots are found by
shift-AND over the width's shift schedule, which the plan carries
precomputed; a low-to-high search takes the lowest window start, a
high-to-low search the highest, and exact fit first looks for the lowest
window that is a whole free run.
The public calls :func:`intersection_grid`, :func:`first_free_block` and
:func:`exact_free_block` work on the same ``int`` grids through the same
mask kernels, for user algorithms; the bundled algorithms do not call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .allocation import (
    ALLOCATED,
    NOT_ALLOCATED,
    AllocationContext,
    Verdict,
    _shift_schedule,
)


class SearchDirection(Enum):
    LOW_TO_HIGH = "low_to_high"
    HIGH_TO_LOW = "high_to_low"


@dataclass(frozen=True)
class FreeBlock:
    """A half-open run of slots free on every link under consideration."""

    start: int
    stop: int

    @property
    def length(self) -> int:
        return self.stop - self.start


# -- mask kernels ---------------------------------------------------------------

def _window_starts(free: int, steps: tuple[int, ...]) -> int:
    """Mask of every ``i`` such that bits ``i .. i+size-1`` of ``free`` are set.

    ``steps`` is the shift schedule of ``size`` (see ``_shift_schedule``).
    """
    for step in steps:
        free &= free >> step
    return free


def _exact_starts(free: int, size: int, windows: int) -> int:
    """The ``windows`` starts whose run of ``size`` free bits is maximal.

    The left neighbour and the slot after the run must not be free; slot -1
    and slots beyond the grid count as occupied.
    """
    return windows & ~((free << 1) | (free >> size))


def _lowest(starts: int) -> int:
    return (starts & -starts).bit_length() - 1


def _route_occupied(link_ids: tuple[int, ...], links) -> int:
    """Joint occupancy mask of a route; ``links`` indexed by id."""
    occupied = 0
    for lid in link_ids:
        occupied |= links[lid]._mask
    return occupied


# -- public grid calls -----------------------------------------------------------

def intersection_grid(ctx: AllocationContext, route: int) -> int:
    """Joint occupancy over the route: the OR of its link masks.

    Bit i is set when slot i is occupied on any link of the route.
    """
    return _route_occupied(ctx.route_link_ids(route), ctx._network.links)


def _free_mask(grid: int, slot_count: int) -> int:
    # An array would broadcast through the shifts below and answer wrongly.
    if not isinstance(grid, int):
        raise TypeError(
            f"a grid must be an int bitmask, got {type(grid).__name__}")
    if slot_count < 1:
        raise ValueError(f"slot_count must be >= 1, got {slot_count}")
    return ((1 << slot_count) - 1) & ~grid


def first_free_block(grid: int, slot_count: int, size: int,
                     direction: SearchDirection = SearchDirection.LOW_TO_HIGH,
                     ) -> FreeBlock | None:
    """Placement of ``size`` consecutive free slots, or None.

    ``grid`` is an ``int`` occupancy mask of ``slot_count`` slots.
    LOW_TO_HIGH returns the block with the minimal feasible start index,
    HIGH_TO_LOW the maximal one.  The returned block has length exactly
    ``size`` (a placement, not a maximal run).
    """
    if size < 1:
        raise ValueError(f"block size must be >= 1, got {size}")
    starts = _window_starts(_free_mask(grid, slot_count), _shift_schedule(size))
    if not starts:
        return None
    if direction is SearchDirection.LOW_TO_HIGH:
        start = _lowest(starts)
    else:
        start = starts.bit_length() - 1
    return FreeBlock(start, start + size)


def exact_free_block(grid: int, slot_count: int, size: int) -> FreeBlock | None:
    """Lowest maximal free run whose length is exactly ``size``, or None.

    ``grid`` is an ``int`` occupancy mask of ``slot_count`` slots.
    "Maximal" means the run cannot be extended: its neighbours (where they
    exist) are occupied.
    """
    if size < 1:
        raise ValueError(f"block size must be >= 1, got {size}")
    free = _free_mask(grid, slot_count)
    starts = _exact_starts(free, size, _window_starts(free, _shift_schedule(size)))
    if not starts:
        return None
    start = _lowest(starts)
    return FreeBlock(start, start + size)


def modulation_options(ctx: AllocationContext, route: int) -> list[int]:
    """Option indices whose reach covers the route length, fewest slots first.

    Catalog entries already list options fewest-slots-first (highest-order
    modulation first), so filtering preserves the trial order.  The list is
    empty when the route is too long for every option.
    """
    length = ctx.route_length_km(route)
    return [i for i in range(ctx.option_count())
            if ctx.request_reach_km(i) >= length]


def _search_routes(ctx: AllocationContext, direction: SearchDirection,
                   exact_first: bool) -> Verdict:
    high_to_low = direction is SearchDirection.HIGH_TO_LOW
    links = ctx._network.links
    for route, plan in enumerate(ctx._search_plan()):
        if not plan.schedules:
            continue
        free = plan.all_slots ^ _route_occupied(plan.link_ids, links)
        for size, steps in plan.schedules:
            windows = _window_starts(free, steps)
            if not windows:
                continue
            exact = _exact_starts(free, size, windows) if exact_first else 0
            if exact:
                start = _lowest(exact)
            elif high_to_low:
                start = windows.bit_length() - 1
            else:
                start = _lowest(windows)
            ctx.place(route, start, size)
            return ALLOCATED
    return NOT_ALLOCATED


def first_fit(ctx: AllocationContext) -> Verdict:
    """Place the request in the lowest free block of the first route that fits."""
    return _search_routes(ctx, SearchDirection.LOW_TO_HIGH, exact_first=False)


def exact_fit(ctx: AllocationContext) -> Verdict:
    """Prefer a maximal free run of exactly the required width; else First Fit."""
    return _search_routes(ctx, SearchDirection.LOW_TO_HIGH, exact_first=True)


def first_last_fit(ctx: AllocationContext,
                   threshold_gbps: float = 100.0) -> Verdict:
    """First Fit from opposite spectrum ends depending on the bitrate.

    Requests below ``threshold_gbps`` search low-to-high; requests at or
    above it search high-to-low.
    """
    if ctx.request_bitrate() >= threshold_gbps:
        direction = SearchDirection.HIGH_TO_LOW
    else:
        direction = SearchDirection.LOW_TO_HIGH
    return _search_routes(ctx, direction, exact_first=False)


#: Registry for CLI selection by name.
ALGORITHMS = {
    "FF": first_fit,
    "EF": exact_fit,
    "FLF": first_last_fit,
}
