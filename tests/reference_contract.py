"""A reference model of one request's staging and commit, plain on purpose.

It is written from the README's allocator contract, not from
``eonsim.allocation`` or ``eonsim.engine``, and shares no code with them.
Each grid is a list of booleans.  A request is the list of context calls
the allocator makes, in order, followed by its verdict:

- ``("alloc_slots", link_id, start, stop)`` stages ``[start, stop)`` on a
  link;
- ``("link_in_route", route, link)``, ``("route_link_ids", route)`` and
  ``("request_slots", option)`` read by index;
- ``("commit_staged",)`` is refused: the engine commits, on ``ALLOCATED``.

:func:`outcome` gives either the exception class of the first step that
must fail, with that step's position (the verdict is the step after the
last call), or the grids after the commit.
"""

from __future__ import annotations

from eonsim.errors import (
    AllocatorFaultError,
    AuditViolationError,
    CommitConflictError,
    NoSuchLinkError,
    OutOfBoundsError,
    StagedOverlapError,
)

ALLOCATED, NOT_ALLOCATED = "ALLOCATED", "NOT_ALLOCATED"


def _index_ok(index, count):
    return 0 <= index < count


def _call_error(call, grids, routes, option_count, staged):
    """The class the call raises, or ``None``; a valid range is staged."""
    kind = call[0]
    if kind == "commit_staged":
        return AllocatorFaultError
    if kind == "alloc_slots":
        _, link_id, start, stop = call
        if not _index_ok(link_id, len(grids)):
            return NoSuchLinkError
        if type(start) is not int or type(stop) is not int:
            return AllocatorFaultError
        if not 0 <= start < stop <= len(grids[link_id]):
            return OutOfBoundsError
        for other_id, other_start, other_stop in staged:
            if other_id == link_id and start < other_stop and other_start < stop:
                return StagedOverlapError
        staged.append((link_id, start, stop))
        return None
    if kind == "request_slots":
        return None if _index_ok(call[1], option_count) else OutOfBoundsError
    route = call[1]
    if not _index_ok(route, len(routes)):
        return OutOfBoundsError
    if kind == "link_in_route" and not _index_ok(call[2], len(routes[route])):
        return OutOfBoundsError
    return None


def _audit_passes(staged):
    """Something staged, one block per link, the same block on every link."""
    if not staged:
        return False
    per_link = {}
    for link_id, start, stop in staged:
        per_link.setdefault(link_id, []).append((start, stop))
    spans = set()
    for ranges in per_link.values():
        ranges.sort()
        for (_, stop), (next_start, _) in zip(ranges, ranges[1:]):
            if stop != next_start:
                return False
        spans.add((ranges[0][0], ranges[-1][1]))
    return len(spans) == 1


def outcome(grids, routes, option_count, calls, verdict, strict_audit):
    """``("raise", step, class)`` or ``("grids", grids after the request)``.

    ``grids`` is one list of booleans per link id (``True`` is occupied),
    ``routes`` the candidate routes as link-id lists, and ``verdict`` is
    :data:`ALLOCATED`, :data:`NOT_ALLOCATED` or anything else.
    """
    staged = []
    for step, call in enumerate(calls):
        error = _call_error(call, grids, routes, option_count, staged)
        if error is not None:
            return "raise", step, error
    step = len(calls)
    if verdict == NOT_ALLOCATED:
        return "grids", [list(grid) for grid in grids]
    if verdict != ALLOCATED:
        return "raise", step, AllocatorFaultError
    if strict_audit and not _audit_passes(staged):
        return "raise", step, AuditViolationError
    for link_id, start, stop in staged:
        if any(grids[link_id][start:stop]):
            return "raise", step, CommitConflictError
    after = [list(grid) for grid in grids]
    for link_id, start, stop in staged:
        after[link_id][start:stop] = [True] * (stop - start)
    return "grids", after
