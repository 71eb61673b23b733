"""Algorithm-facing view of one connection request.

An allocation algorithm is a plain callable ``(context) -> verdict`` invoked
once per connection request.  Through the context it can read the candidate
routes for the requested node pair, inspect link grids, read the sampled
bitrate's modulation options, and *stage* slot ranges: one interval on every
link of a candidate route with :meth:`AllocationContext.place`, or range by
range with :meth:`AllocationContext.alloc_slots`.  Both check their bounds
when called: a bound that is not an ``int`` raises
:class:`~eonsim.errors.AllocatorFaultError`, one outside the grid
:class:`~eonsim.errors.OutOfBoundsError`.  Staging never touches the live
grids: only when the callback returns :data:`ALLOCATED` does the engine
commit the staged ranges (atomically, after validating them); on
:data:`NOT_ALLOCATED` everything staged is discarded.  That makes the
returned verdict authoritative — a rejected request can never leak slots.

A minimal algorithm looks like::

    from eonsim import ALLOCATED, NOT_ALLOCATED

    def lowest_slot_first(ctx):
        need = ctx.request_slots(0)
        for route in range(ctx.route_count()):
            first = ctx.link_in_route(route, 0)
            for start in range(first.slot_count - need + 1):
                if all(ctx.link_in_route(route, i).is_range_free(start, start + need)
                       for i in range(ctx.link_count_in_route(route))):
                    for i in range(ctx.link_count_in_route(route)):
                        ctx.alloc_slots(ctx.link_in_route(route, i).id,
                                        start, start + need)
                    return ALLOCATED
        return NOT_ALLOCATED

With strict auditing enabled (the default), commits additionally enforce the
two defining spectrum constraints: the staged slots on each link must form
one contiguous block, and every link of the connection must use the same
slot interval.  An accepted request must also have staged something.  A
placement meets both by construction, so its commit skips the audit.

The bundled search and :meth:`AllocationContext.place` read a precomputed
:class:`RoutePlan` per candidate route: link ids, the distinct admissible
slot widths with their shift schedules, and the all-slots mask.  The engine
builds the plans of each (source, destination, bitrate) on first use in a
run.

A context stages its ranges as ``(link_ids, bits)`` holdings, ``bits``
having the staged slots set: one holding for a placement, with the route's
link ids, and one per :meth:`~AllocationContext.alloc_slots` range, with
its one link id, in staging order.  The engine's commit returns them as
they are, and the engine releases them at departure with one mask
operation per link.  Read as ``(link_id, start, stop)`` triples
(:attr:`AllocationContext.staged`, :meth:`AllocationContext.commit_staged`,
:attr:`~eonsim.engine.ConnectionRecord.holdings`, the strict audit), they
are expanded by :func:`_ranges`.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import NamedTuple

from .errors import (
    AllocatorFaultError,
    AlreadyOccupiedError,
    AuditViolationError,
    CommitConflictError,
    OutOfBoundsError,
    StagedOverlapError,
)
from .network import Link, Network, Route
from .traffic import BitRateEntry


class Verdict(Enum):
    """Outcome of one allocation callback invocation."""

    ALLOCATED = "allocated"
    NOT_ALLOCATED = "not_allocated"


#: Return values for allocation callbacks.
ALLOCATED = Verdict.ALLOCATED
NOT_ALLOCATED = Verdict.NOT_ALLOCATED


class LinkView:
    """Read-only window onto one link of a candidate route.

    Exposes the link's identity, length and grid queries, but no way to
    mutate the grid — staging goes through :meth:`AllocationContext.place`
    and :meth:`AllocationContext.alloc_slots`.
    """

    __slots__ = ("_link",)

    def __init__(self, link: Link):
        self._link = link

    @property
    def id(self) -> int:
        return self._link.id

    @property
    def src(self) -> int:
        return self._link.src

    @property
    def dst(self) -> int:
        return self._link.dst

    @property
    def length_km(self) -> float:
        return self._link.length_km

    @property
    def slot_count(self) -> int:
        return self._link.slot_count

    @property
    def occupancy(self) -> int:
        """The link's grid as an ``int`` bitmask, as :attr:`Link.occupancy`.

        Bit ``i`` is set when slot ``i`` is occupied.  An ``int`` is
        immutable, so the value does not follow later changes.
        """
        return self._link.occupancy

    def is_range_free(self, start: int, stop: int) -> bool:
        return self._link.is_range_free(start, stop)

    def __repr__(self):
        return f"LinkView({self._link!r})"


@functools.lru_cache(maxsize=None)
def _shift_schedule(size: int) -> tuple[int, ...]:
    """Right shifts whose successive ANDs turn a free mask into window starts.

    After ``mask &= mask >> step`` for every step, bit ``i`` is set exactly
    when bits ``i .. i+size-1`` of the original mask were: each step extends
    the run every set bit vouches for by ``step`` slots, doubling it until
    the remainder is shorter than the run so far.
    """
    steps = []
    width = 1
    while width < size:
        step = min(width, size - width)
        steps.append(step)
        width += step
    return tuple(steps)


@functools.lru_cache(maxsize=None)
def _width_schedules(widths: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # One shared tuple per distinct widths tuple, so the plans of a run
    # (910 for NSFNet and the full catalog) hold no copies of it.
    return tuple((width, _shift_schedule(width)) for width in widths)


class RoutePlan(NamedTuple):
    """What the bundled search needs of one candidate route for one request."""

    link_ids: tuple[int, ...]
    #: ``(width, _shift_schedule(width))`` per distinct slot width of the
    #: options whose reach covers the route, in option trial order.
    schedules: tuple[tuple[int, tuple[int, ...]], ...]
    #: Mask with every slot of the route's grid set.
    all_slots: int


def request_plan(network: Network, routes: tuple[Route, ...],
                 request: BitRateEntry) -> tuple[RoutePlan, ...]:
    """One :class:`RoutePlan` per candidate route, in retry order.

    A pure function of the routes, the bitrate entry and the network's slot
    count, so the engine builds it once per (source, destination, bitrate)
    in a run and reuses it.
    """
    plans = []
    for route in routes:
        widths: list[int] = []
        for option in request.options:
            if (option.reach_km >= route.length_km
                    and option.slot_count not in widths):
                widths.append(option.slot_count)
        all_slots = (1 << network.links[route.link_ids[0]].slot_count) - 1
        plans.append(RoutePlan(route.link_ids, _width_schedules(tuple(widths)),
                               all_slots))
    return tuple(plans)


class AllocationContext:
    """Everything one allocation callback may see and do for one request."""

    __slots__ = ("src", "dst", "_network", "_routes", "_request", "_staged",
                 "_placed", "_strict_audit", "_plan", "_sealed")

    def __init__(self, network: Network, src: int, dst: int,
                 routes: tuple[Route, ...], request: BitRateEntry,
                 strict_audit: bool = True):
        self.src = src
        self.dst = dst
        self._network = network
        self._routes = routes
        self._request = request
        # The staged (link_ids, bits) holdings, in the form _commit returns.
        self._staged: tuple[tuple[tuple[int, ...], int], ...] = ()
        self._placed = False  # a placement is the request's only staging
        self._strict_audit = strict_audit
        self._plan: tuple[RoutePlan, ...] | None = None
        self._sealed = False  # the engine seals its contexts and commits them

    @property
    def strict_audit(self) -> bool:
        """Whether commits are audited; fixed by the constructor.

        Read-only, so an allocator cannot switch the audit off for its own
        commit: assigning it raises ``AttributeError``, which aborts the
        run as an allocator fault.
        """
        return self._strict_audit

    # -- candidate route reads -------------------------------------------

    def route_count(self) -> int:
        """Number of candidate routes for the requested pair; index order is retry order."""
        return len(self._routes)

    def _route(self, route: int) -> Route:
        if not 0 <= route < len(self._routes):
            raise OutOfBoundsError(
                f"route index {route} out of range [0, {len(self._routes)})"
            )
        return self._routes[route]

    def route_length_km(self, route: int) -> float:
        return self._route(route).length_km

    def link_count_in_route(self, route: int) -> int:
        return len(self._route(route).link_ids)

    def link_in_route(self, route: int, link: int) -> LinkView:
        """Read-only view of the ``link``-th link of the ``route``-th route."""
        link_ids = self._route(route).link_ids
        if not 0 <= link < len(link_ids):
            raise OutOfBoundsError(
                f"link index {link} out of range [0, {len(link_ids)}) "
                f"in route {route}"
            )
        return LinkView(self._network.link(link_ids[link]))

    def route_link_ids(self, route: int) -> tuple[int, ...]:
        """Link ids of the route, in traversal order."""
        return self._route(route).link_ids

    def _search_plan(self) -> tuple[RoutePlan, ...]:
        # The engine hands in its memoised plan; a context built by hand
        # derives one on first use.
        if self._plan is None:
            self._plan = request_plan(self._network, self._routes, self._request)
        return self._plan

    # -- request reads -----------------------------------------------------

    def option_count(self) -> int:
        return len(self._request.options)

    def _option(self, option: int):
        if not 0 <= option < len(self._request.options):
            raise OutOfBoundsError(
                f"option index {option} out of range "
                f"[0, {len(self._request.options)})"
            )
        return self._request.options[option]

    def request_slots(self, option: int) -> int:
        """Slot need of the given modulation option."""
        return self._option(option).slot_count

    def request_reach_km(self, option: int) -> float:
        """Optical reach of the given modulation option, in km."""
        return self._option(option).reach_km

    def request_modulation(self, option: int) -> str:
        """Modulation format label of the given option."""
        return self._option(option).modulation

    def request_bitrate(self) -> float:
        """The sampled bitrate in Gbps, numeric form."""
        return self._request.bitrate_gbps

    def request_bitrate_label(self) -> str:
        """The sampled bitrate as the text label from the catalog document."""
        return self._request.label

    # -- staging -----------------------------------------------------------

    @property
    def staged(self) -> tuple[tuple[int, int, int], ...]:
        """Snapshot of the staged ``(link_id, start, stop)`` ranges."""
        return _ranges(self._staged)

    def place(self, route: int, start: int, width: int) -> None:
        """Stage ``[start, start + width)`` on every link of candidate ``route``.

        Checked now, in this order: the route index
        (:class:`OutOfBoundsError`), the bounds as :meth:`alloc_slots`
        checks them on the route's first link, that ``width`` is the slot
        count of an option whose reach covers the route
        (:class:`AuditViolationError`), and that nothing else is staged
        (:class:`StagedOverlapError`).  A placement is then the request's
        only staging, and :meth:`alloc_slots` refuses to add to it.
        """
        plans = self._plan or self._search_plan()
        if not 0 <= route < len(plans):
            self._route(route)  # raises OutOfBoundsError
        link_ids, schedules, all_slots = plans[route]
        slot_count = all_slots.bit_length()
        if not (type(start) is int and type(width) is int
                and 0 <= start < start + width <= slot_count):
            try:
                stop = start + width
            except TypeError:  # a None or str bound has no stop to show
                stop = None
            _refuse_bounds(link_ids[0], start, stop, slot_count)
        for size, _ in schedules:
            if size == width:
                break
        else:
            raise AuditViolationError(
                f"width {width} is not admissible on route {route}, whose "
                f"options' reach admits widths {[size for size, _ in schedules]}"
            )
        if self._staged:
            raise StagedOverlapError(
                f"place({route}, {start}, {width}) with ranges already staged: "
                "a placement is the request's only staging"
            )
        self._staged = ((link_ids, ((1 << width) - 1) << start),)
        self._placed = True

    def alloc_slots(self, link_id: int, start: int, stop: int) -> None:
        """Stage occupation of ``[start, stop)`` on a link.

        The live grid is untouched; validation against it happens at commit.
        Bounds are checked now, as is that no :meth:`place` staged the
        request, and overlap with ranges already staged on the same link.
        """
        links = self._network.links
        if 0 <= link_id < len(links):
            link = links[link_id]
        else:
            link = self._network.link(link_id)  # raises NoSuchLinkError
        if not (type(start) is int and type(stop) is int
                and 0 <= start < stop <= link._slot_count):
            _refuse_bounds(link_id, start, stop, link._slot_count)
        if self._placed:
            raise StagedOverlapError(
                f"staged range [{start}, {stop}) on link {link_id} after "
                "place(): a placement is the request's only staging"
            )
        bits = ((1 << (stop - start)) - 1) << start
        for (other_id,), other in self._staged:
            if other_id == link_id and other & bits:
                other_start, other_stop = _span(other)
                raise StagedOverlapError(
                    f"staged range [{start}, {stop}) overlaps "
                    f"[{other_start}, {other_stop}) on link {link_id}"
                )
        self._staged += (((link_id,), bits),)

    def discard_staged(self) -> None:
        """Drop everything staged; live grids are untouched."""
        self._staged = ()
        self._placed = False

    def commit_staged(self) -> tuple[tuple[int, int, int], ...]:
        """Validate and occupy all staged ranges atomically.

        Returns the committed ``(link_id, start, stop)`` ranges, in staging
        order.  Bounds were checked when each range was staged, so the
        commit raises :class:`CommitConflictError` if any staged range is
        no longer free, and — in strict-audit mode, for ranges staged with
        :meth:`alloc_slots` — :class:`AuditViolationError` if nothing is
        staged, or if the staged ranges are not contiguous per link or do
        not span the identical interval on every staged link.  On any error
        the live grids are left bit-identical to their prior state.  A
        context the engine built raises :class:`AllocatorFaultError`
        instead, before touching any grid: the engine commits when the
        allocator returns :data:`ALLOCATED`.
        """
        if self._sealed:
            raise AllocatorFaultError("commit_staged() on a context the engine "
                                      "built: return ALLOCATED to commit")
        return _ranges(self._commit())

    def _commit(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        # The engine's commit: commit_staged() without the seal, returning
        # the staged (link_ids, bits) holdings.  Staged ranges on one link
        # never overlap, so testing every range against the live masks
        # before setting any makes the commit all-or-nothing.
        staged = self._staged
        if self._strict_audit and not self._placed:
            self._audit()
        links = self._network.links
        for link_ids, bits in staged:
            for link_id in link_ids:
                if links[link_id]._mask & bits:
                    _refuse(links[link_id], *_span(bits))
        for link_ids, bits in staged:
            for link_id in link_ids:
                links[link_id]._mask |= bits
        self._staged = ()
        self._placed = False
        return staged

    def _audit(self) -> None:
        # alloc_slots rejects overlapping ranges on one link, so when every
        # staged range is the same interval, each link holds it once and
        # both constraints hold.
        staged = _ranges(self._staged)
        if not staged:
            raise AuditViolationError(
                "ALLOCATED with nothing staged: an accepted connection must "
                "hold at least one slot range")
        _, first_start, first_stop = staged[0]
        for _, start, stop in staged:
            if start != first_start or stop != first_stop:
                break
        else:
            return
        per_link: dict[int, list[tuple[int, int]]] = {}
        for link_id, start, stop in staged:
            per_link.setdefault(link_id, []).append((start, stop))
        spans: set[tuple[int, int]] = set()
        for link_id, ranges in per_link.items():
            ranges.sort()
            for (_, stop_a), (start_b, _) in zip(ranges, ranges[1:]):
                if stop_a != start_b:
                    raise AuditViolationError(
                        f"link {link_id}: staged slots are not contiguous "
                        f"(gap between {stop_a} and {start_b})"
                    )
            spans.add((ranges[0][0], ranges[-1][1]))
        if len(spans) > 1:
            raise AuditViolationError(
                "staged links do not share one slot interval: "
                + ", ".join(f"[{a}, {b})" for a, b in sorted(spans))
            )


def _refuse(link: Link, start: int, stop: int) -> None:
    """Raise the commit conflict of a range that is not free on ``link``."""
    try:
        link.occupy_slots(start, stop)  # refuses, touching nothing
    except AlreadyOccupiedError as err:
        raise CommitConflictError(
            f"staged range is no longer free at commit time: {err}"
        ) from err


def _refuse_bounds(link_id: int, start, stop, slot_count: int) -> None:
    """Raise the staging error of bounds that fail the grid of ``link_id``."""
    if type(start) is not int or type(stop) is not int:
        raise AllocatorFaultError(f"staged [{start!r}, {stop!r}) on link "
                                  f"{link_id}: slot bounds must be int")
    raise OutOfBoundsError(f"staged range [{start}, {stop}) outside the "
                           f"{slot_count}-slot grid of link {link_id}")


def _span(bits: int) -> tuple[int, int]:
    """``(start, stop)`` of the one run of set bits in ``bits``."""
    return (bits & -bits).bit_length() - 1, bits.bit_length()


def _ranges(holdings) -> tuple[tuple[int, int, int], ...]:
    """``(link_ids, bits)`` holdings as ``(link_id, start, stop)`` triples."""
    return tuple((link_id, *_span(bits))
                 for link_ids, bits in holdings for link_id in link_ids)
