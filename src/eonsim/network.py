"""Physical network model: directed links, slot grids and candidate routes.

A link owns the occupancy grid of its frequency slots as a Python ``int``
bitmask: bit ``i`` is set when slot ``i`` is occupied.  Every range check,
occupy and release is then one mask operation, and the joint grid of a
route is the OR of its links' masks.  All slot ranges in this package are
half-open ``[start, stop)`` with 0-based indices.  :meth:`Link.occupy_slots`
and :meth:`Link.release_slots` validate first and leave the grid untouched
when they fail.  Three package-internal writers set the mask directly: the
context's ``_commit`` (behind
:meth:`~eonsim.allocation.AllocationContext.commit_staged` and the engine's
commit) sets the staged bits once every staged range has been checked
free, a departure in :meth:`~eonsim.engine.Simulator.run` clears them with
one XOR per link once it has checked they are all set, and
:class:`~eonsim.engine.Simulator` copies the caller's masks into its own
copy of the network when it is built.
:attr:`Link.occupancy` hands out that same ``int``, the package's one grid
type; slot ``i`` is occupied when ``occupancy >> i & 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    AlreadyOccupiedError,
    NoSuchLinkError,
    NotOccupiedError,
    OutOfBoundsError,
)


class Link:
    """Directed fiber link with a frequency-slot occupancy grid."""

    __slots__ = ("id", "src", "dst", "length_km", "_slot_count", "_mask")

    def __init__(self, id: int, src: int, dst: int, length_km: float, slot_count: int):
        if src == dst:
            raise ValueError(f"link {id} is a self-loop on node {src}")
        if type(slot_count) is not int:
            raise ValueError(f"link {id}: slots must be an int, got {slot_count!r}")
        if slot_count < 1:
            raise ValueError(f"link {id}: slots must be >= 1, got {slot_count}")
        if not (math.isfinite(length_km) and length_km >= 0):
            raise ValueError(
                f"link {id}: length must be finite and >= 0, got {length_km}")
        self.id = id
        self.src = src
        self.dst = dst
        self.length_km = float(length_km)
        self._slot_count = slot_count
        self._mask = 0

    def __repr__(self):
        return (f"Link(id={self.id}, src={self.src}, dst={self.dst}, "
                f"length_km={self.length_km}, slots={self.slot_count})")

    @property
    def slot_count(self) -> int:
        return self._slot_count

    @property
    def occupancy(self) -> int:
        """The grid as a bitmask; bit ``i`` is set when slot ``i`` is occupied.

        An ``int`` is immutable, so this is a snapshot: it does not follow
        later changes.
        """
        return self._mask

    @property
    def occupied_count(self) -> int:
        return self._mask.bit_count()

    def _out_of_bounds(self, start: int, stop: int) -> OutOfBoundsError:
        return OutOfBoundsError(
            f"slot range [{start}, {stop}) outside the {self._slot_count}-slot "
            f"grid of link {self.id}"
        )

    def occupy_slots(self, start: int, stop: int) -> None:
        """Mark ``[start, stop)`` occupied; every slot must currently be free."""
        if not (0 <= start < stop <= self._slot_count):
            raise self._out_of_bounds(start, stop)
        bits = ((1 << (stop - start)) - 1) << start
        if self._mask & bits:
            raise AlreadyOccupiedError(
                f"link {self.id}: range [{start}, {stop}) is not entirely free"
            )
        self._mask |= bits

    def release_slots(self, start: int, stop: int) -> None:
        """Free ``[start, stop)``; every slot must currently be occupied."""
        if not (0 <= start < stop <= self._slot_count):
            raise self._out_of_bounds(start, stop)
        bits = ((1 << (stop - start)) - 1) << start
        if self._mask & bits != bits:
            raise NotOccupiedError(
                f"link {self.id}: range [{start}, {stop}) is not entirely occupied "
                "(double release?)"
            )
        self._mask ^= bits

    def is_range_free(self, start: int, stop: int) -> bool:
        """True iff every slot in ``[start, stop)`` is free.  No mutation."""
        if not (0 <= start < stop <= self._slot_count):
            raise self._out_of_bounds(start, stop)
        return not self._mask & (((1 << (stop - start)) - 1) << start)


class Network:
    """A named set of nodes plus directed links, with (src, dst) -> link lookup.

    A node is its integer id: ``Network(name, [0, 1, 2], links)``, at least
    two of them, the fewest a request can join.  At most one directed link
    may exist per ordered node pair; an undirected topology is two directed
    links.  Node and link ids are dense and 0-based, so links are indexable
    by id.  Every link has the same slot count: a connection holds the same
    slot indices on each link of its route, so one grid size serves every
    route.
    """

    def __init__(self, name: str, node_ids: Iterable[int], links: Sequence[Link]):
        ids = sorted(node_ids)
        node_count = len(ids)
        if node_count < 2:
            raise ValueError(f"a network needs at least 2 nodes, got {node_count}")
        if ids != list(range(node_count)):
            raise ValueError(f"node ids must be exactly 0..N-1, got {ids}")
        link_ids = sorted(link.id for link in links)
        if link_ids != list(range(len(links))):
            raise ValueError(f"link ids must be exactly 0..L-1, got {link_ids}")
        adjacency: dict[tuple[int, int], int] = {}
        for link in links:
            for endpoint in (link.src, link.dst):
                if not 0 <= endpoint < node_count:
                    raise ValueError(
                        f"link {link.id} references unknown node {endpoint}")
            pair = (link.src, link.dst)
            if pair in adjacency:
                raise ValueError(
                    f"link {link.id} duplicates directed link ({link.src} -> "
                    f"{link.dst}), already declared by link {adjacency[pair]}")
            adjacency[pair] = link.id
        self.name = name
        self.node_count = node_count
        self.links = tuple(sorted(links, key=lambda l: l.id))
        for link in self.links[1:]:
            if link.slot_count != self.links[0].slot_count:
                raise ValueError(
                    f"link {link.id} has {link.slot_count} slots but link 0 has "
                    f"{self.links[0].slot_count}: all links need one slot count")
        self.adjacency = adjacency

    @classmethod
    def build(cls, name: str, node_count: int,
              links: Iterable[tuple[int, int, float, int]]) -> "Network":
        """Assemble a network from ``(src, dst, length_km, slot_count)`` tuples.

        Link ids are assigned in the order given.
        """
        built = [Link(i, src, dst, length, slots)
                 for i, (src, dst, length, slots) in enumerate(links)]
        return cls(name, range(node_count), built)

    def __repr__(self):
        return (f"Network(name={self.name!r}, nodes={self.node_count}, "
                f"links={len(self.links)})")

    def link(self, link_id: int) -> Link:
        if not 0 <= link_id < len(self.links):
            raise NoSuchLinkError(f"network {self.name!r} has no link with id {link_id}")
        return self.links[link_id]

    def link_by_endpoints(self, src: int, dst: int) -> int:
        """Id of the directed link src -> dst."""
        try:
            return self.adjacency[(src, dst)]
        except KeyError:
            raise NoSuchLinkError(
                f"network {self.name!r} has no directed link ({src} -> {dst})"
            ) from None

    def all_grids_free(self) -> bool:
        return all(link.occupied_count == 0 for link in self.links)

    def _route_length(self, src: int, dst: int, link_ids: Sequence[int]) -> float:
        """Length in km, summed in link order, of a route that starts at ``src``,
        chains, ends at ``dst`` and repeats no link; raises at its first fault."""
        links, at, last, length = self.links, src, None, 0.0
        for link_id in link_ids:
            link = links[link_id] if 0 <= link_id < len(links) else self.link(link_id)
            if link.src != at:
                if last is None:
                    raise ValueError(f"route for ({src}, {dst}) starts at node "
                                     f"{link.src}, not {src}")
                raise ValueError(f"route for ({src}, {dst}): link {last} ends at "
                                 f"{at} but link {link_id} starts at {link.src}")
            if link_ids.count(link_id) > 1:
                raise ValueError(f"route for ({src}, {dst}) uses link {link_id} "
                                 "more than once")
            length += link.length_km
            at, last = link.dst, link_id
        if at != dst:
            raise ValueError(f"route for ({src}, {dst}) ends at node {at}, not {dst}")
        return length

    def fresh_copy(self) -> "Network":
        """Same topology with brand-new, all-free occupancy grids."""
        links = [Link(l.id, l.src, l.dst, l.length_km, l.slot_count) for l in self.links]
        return Network(self.name, range(self.node_count), links)


@dataclass(frozen=True)
class Route:
    """An ordered chain of directed links; ``length_km`` is the exact sum."""

    link_ids: tuple[int, ...]
    length_km: float


class RouteSet:
    """Ordered candidate routes per ordered node pair.

    The per-pair list order is the retry order used by multi-route
    algorithms; it is preserved exactly as routes are added.
    """

    def __init__(self):
        self._routes: dict[tuple[int, int], list[Route]] = {}

    def add_route(self, network: Network, src: int, dst: int,
                  link_ids: Sequence[int]) -> Route:
        """Append a route built from explicit link ids, validating the chain.

        The links must chain from ``src`` to ``dst`` and no link may appear
        twice, since a connection holds one slot interval on each link of
        its route; ``Simulator.init()`` checks the same on each run's network.
        """
        if not link_ids:
            raise ValueError(f"route for ({src}, {dst}) must contain at least one link")
        route = Route(tuple(link_ids), network._route_length(src, dst, link_ids))
        self._routes.setdefault((src, dst), []).append(route)
        return route

    def add_node_path(self, network: Network, node_path: Sequence[int]) -> Route:
        """Append a route given as a node-id sequence, resolving each hop."""
        if len(node_path) < 2:
            raise ValueError(f"node path {list(node_path)} needs at least two nodes")
        link_ids = [network.link_by_endpoints(a, b)
                    for a, b in zip(node_path, node_path[1:])]
        return self.add_route(network, node_path[0], node_path[-1], link_ids)

    def routes_for(self, src: int, dst: int) -> tuple[Route, ...]:
        return tuple(self._routes.get((src, dst), ()))

    def pairs(self) -> Iterator[tuple[int, int]]:
        return iter(self._routes)

    @property
    def pair_count(self) -> int:
        return len(self._routes)

    def truncated(self, max_routes: int) -> "RouteSet":
        """Copy keeping only the first ``max_routes`` routes of every pair."""
        if max_routes < 1:
            raise ValueError(f"max_routes must be >= 1, got {max_routes}")
        clone = RouteSet()
        clone._routes = {pair: routes[:max_routes]
                         for pair, routes in self._routes.items()}
        return clone
