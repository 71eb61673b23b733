"""Discrete-event core: pending arrival, departure heap, run loop, load sweeps.

One arrival is pending at any moment; processing it schedules the next one
until the configured number of requests has been dispatched, after which
the remaining departures drain and every grid ends as it started.
Departures wait in a heap of plain ``(time, event_id, connection_id,
holdings)`` tuples, one per live connection, so the heap is also the
live-connection table.  The holdings are the commit's ``(link_ids, bits)``
pairs (see :mod:`eonsim.allocation`); a departure clears each pair's
``bits`` from the mask of each of its links, after testing that they are
all set.  The next event is the earliest departure (the lowest event id
among equal times) unless the arrival is strictly earlier:
spectrum is freed before a competing request is evaluated, so ties never
inflate blocking.  An event is never before the clock: it is the clock
plus a draw of :func:`~eonsim.traffic.next_exponential`, never negative.

Request plans (candidate routes, the bitrate entry and what the bundled
search needs of them, see :func:`~eonsim.allocation.request_plan`) are
built in :meth:`Simulator.run` on the first request for each (source,
destination, bitrate) and reused for the rest of the run.  A request can
draw any ordered pair of distinct nodes, so :meth:`Simulator.init` raises
:class:`~eonsim.errors.InvalidConfigError` for a pair without routes, or
for a route that breaks :meth:`~eonsim.network.RouteSet.add_route`'s rule
on the run's network or whose length there differs from its own.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import io
import itertools
import sys
import time as _time
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Callable, NamedTuple

from .allocation import (
    ALLOCATED,
    NOT_ALLOCATED,
    AllocationContext,
    _ranges,
    _span,
    request_plan,
)
from .errors import (
    AllocatorFaultError,
    AlreadyInitializedError,
    EonSimError,
    InvalidConfigError,
    NoSuchLinkError,
    NotInitializedError,
    RunAbortedError,
)
from .network import Network, RouteSet
from .report import SimulationReport
from .traffic import (
    BitRateCatalog,
    RngStreams,
    Seeds,
    TrafficProfile,
    next_exponential,
    sample_bitrate,
    sample_src_dst,
)


class EventKind(IntEnum):
    """What an event does; the tie rule, not this value, orders events."""

    DEPARTURE = 0
    ARRIVAL = 1


class Event(NamedTuple):
    """An event as an ``event_listener`` sees it; the engine queues none."""

    time: float
    kind: EventKind
    event_id: int
    connection_id: int | None = None


@dataclass(frozen=True)
class ConnectionRecord:
    """Slot holdings of one live connection, released in full at departure."""

    connection_id: int
    holdings: tuple[tuple[int, int, int], ...]
    departure_time: float


@dataclass(frozen=True)
class SimulatorConfig:
    """Frozen bundle of everything one run needs.

    No run mutates it: each :class:`Simulator` works on its own copy of
    ``network``, so a config can be reused after any run, aborted ones
    included.
    """

    network: Network
    routes: RouteSet
    catalog: BitRateCatalog
    profile: TrafficProfile = TrafficProfile()
    seeds: Seeds = Seeds()
    strict_audit: bool = True


class Simulator:
    """Drives ``goal_connections`` requests through an allocation callback.

    Usage::

        sim = Simulator(config, first_fit, algorithm_name="FF")
        sim.init()
        report = sim.run()

    The configuration and the allocator are fixed at construction.
    Construction copies ``config.network`` (topology and current grids,
    O(links)) and :attr:`config` holds that copy, so ``sim.config.network``
    carries the run's grids while the caller's network stays as it was;
    routes and catalog are shared.  A simulator instance performs exactly
    one run; :meth:`run` called again returns its report, or raises
    :class:`RunAbortedError` if it aborted.

    ``allocator`` is a callable, ``event_listener`` is ``None`` or a
    callable, called after each event with an :class:`Event` view of it,
    and ``progress_every`` is ``None`` or an ``int`` of at least 0; anything
    else raises :class:`ValueError` here.  Above 0, a header, a progress
    line every that many requests and a summary go to ``sys.stdout``.
    """

    def __init__(self, config: SimulatorConfig,
                 allocator: Callable[[AllocationContext], object],
                 *,
                 algorithm_name: str | None = None,
                 progress_every: int | None = None,
                 event_listener: Callable[["Simulator", Event], None] | None = None):
        if not callable(allocator):
            raise ValueError(
                f"the allocator must be callable, got {allocator!r}; pass a "
                "function such as eonsim.first_fit, or one from eonsim.ALGORITHMS")
        if progress_every is not None and not (
                type(progress_every) is int and progress_every >= 0):
            raise ValueError("progress_every must be None or an int of at "
                             f"least 0, got {progress_every!r}")
        if event_listener is not None and not callable(event_listener):
            raise ValueError("event_listener must be None or a callable, "
                             f"got {event_listener!r}")
        network = config.network.fresh_copy()
        for own, given in zip(network.links, config.network.links):
            own._mask = given._mask  # keeps any background occupancy
        self._config = replace(config, network=network)
        self._allocator = allocator
        self._algorithm_name = algorithm_name or _allocator_name(allocator)
        self._progress_every = progress_every
        self._event_listener = event_listener
        self._state = "new"  # -> "ready" (init) -> "running" -> "done"
        self._clock = 0.0
        self._arrival: tuple[float, int] | None = None  # (time, event id)
        self._departures: list[tuple] = []  # heap, see the module docstring
        self._event_ids = itertools.count()
        self._connection_ids = itertools.count()
        self._report: SimulationReport | None = None
        # (src, dst, bitrate index) -> (routes, search plan, bitrate entry),
        # filled on first use.
        self._plans: dict[tuple[int, int, int], tuple] = {}

    # -- read-only state -----------------------------------------------------

    @property
    def config(self) -> SimulatorConfig:
        return self._config

    @property
    def clock(self) -> float:
        return self._clock

    @property
    def pending_events(self) -> int:
        """The queued departures plus the pending arrival, if any."""
        return len(self._departures) + (self._arrival is not None)

    @property
    def live_connections(self) -> dict[int, ConnectionRecord]:
        """One record per queued departure, in connection-id order."""
        return {connection_id: ConnectionRecord(connection_id, _ranges(holdings),
                                                departs)
                for departs, _, connection_id, holdings
                in sorted(self._departures, key=lambda departure: departure[2])}

    @property
    def report(self) -> SimulationReport | None:
        return self._report

    # -- lifecycle -------------------------------------------------------------

    def init(self) -> None:
        """Check every pair's routes, zero the clock, schedule the first arrival."""
        if self._state != "new":
            raise AlreadyInitializedError("init() may only be called once")
        config = self._config
        network = config.network
        for pair in itertools.permutations(range(network.node_count), 2):
            routes = config.routes.routes_for(*pair)
            if not routes:
                raise InvalidConfigError(f"no candidate routes for pair {pair}")
            for index, route in enumerate(routes):
                try:
                    length = network._route_length(*pair, route.link_ids)
                    if length != route.length_km:
                        raise ValueError(f"{route.length_km} km when built, "
                                         f"{length} km here")
                except (ValueError, NoSuchLinkError) as err:
                    raise InvalidConfigError(f"network {network.name!r}, route "
                                             f"{index} of pair {pair}: {err}") from err
        self._streams = RngStreams(config.seeds)
        self._clock = 0.0
        self._report = SimulationReport(
            algorithm=self._algorithm_name,
            arrival_rate=config.profile.arrival_rate,
            departure_rate=config.profile.departure_rate,
            goal_connections=config.profile.goal_connections,
            seeds=config.seeds,
            strict_audit=config.strict_audit,
            per_bitrate={entry.label: [0, 0] for entry in config.catalog},
        )
        first = next_exponential(self._streams.arrival, config.profile.arrival_rate)
        self._arrival = (first, next(self._event_ids))
        self._state = "ready"

    def run(self) -> SimulationReport:
        """Process events until the request goal is met and departures drain."""
        if self._state == "new":
            raise NotInitializedError("call init() before run()")
        if self._state == "done":
            return self._report
        if self._state == "running":
            raise RunAbortedError("an earlier run() of this simulator aborted")
        self._state = "running"
        config = self._config
        network = config.network
        links = network.links
        node_count = network.node_count
        catalog = config.catalog
        strict_audit = config.strict_audit
        arrival_rate = config.profile.arrival_rate
        departure_rate = config.profile.departure_rate
        goal = config.profile.goal_connections
        streams = self._streams
        arrival_stream = streams.arrival
        departure_stream = streams.departure
        bitrate_stream = streams.bitrate
        # Layer entry points are looked up per run, not per module import, so
        # that a rebinding made before run() (tests, tracing) takes effect.
        push = heapq.heappush
        pop = heapq.heappop
        draw_src_dst = sample_src_dst
        draw_bitrate = sample_bitrate
        draw_exponential = next_exponential
        report = self._report
        record_outcome = report.record_outcome
        allocator = self._allocator
        plans = self._plans
        departures = self._departures
        pending = self._arrival
        dispatched = 0
        event_ids = self._event_ids
        connection_ids = self._connection_ids
        progress_every = self._progress_every
        listener = self._event_listener
        if progress_every:
            print(report.header_line())
        started = _time.perf_counter()
        while pending is not None or departures:
            if departures and (pending is None or departures[0][0] <= pending[0]):
                clock, event_id, connection_id, holdings = pop(departures)
                self._clock = clock
                for link_ids, bits in holdings:
                    for link_id in link_ids:
                        link = links[link_id]
                        mask = link._mask
                        if mask & bits != bits:  # raises NotOccupiedError
                            link.release_slots(*_span(bits))
                        link._mask = mask ^ bits
                if listener is not None:
                    listener(self, Event(clock, EventKind.DEPARTURE, event_id,
                                         connection_id))
            else:
                clock, event_id = pending
                self._clock = clock
                src, dst = draw_src_dst(streams, node_count)
                index = draw_bitrate(bitrate_stream, catalog)
                planned = plans.get((src, dst, index))
                if planned is None:
                    routes = config.routes.routes_for(src, dst)
                    entry = catalog[index]
                    planned = (routes, request_plan(network, routes, entry), entry)
                    plans[src, dst, index] = planned
                routes, plan, entry = planned
                ctx = AllocationContext(network, src, dst, routes, entry,
                                        strict_audit=strict_audit)
                ctx._plan = plan
                ctx._sealed = True
                try:
                    verdict = allocator(ctx)
                except AllocatorFaultError:
                    raise
                except Exception as err:
                    raise AllocatorFaultError(
                        f"allocator {self._algorithm_name!r} raised "
                        f"{type(err).__name__}: {err}") from err
                if verdict is ALLOCATED:
                    holdings = ctx._commit()
                    departs = clock + draw_exponential(departure_stream,
                                                       departure_rate)
                    held_by = next(connection_ids)
                    push(departures, (departs, next(event_ids), held_by, holdings))
                elif verdict is not NOT_ALLOCATED:
                    raise AllocatorFaultError(
                        f"allocator {self._algorithm_name!r} returned {verdict!r} "
                        "instead of ALLOCATED or NOT_ALLOCATED")
                record_outcome(verdict, entry.label)
                dispatched += 1
                if dispatched < goal:
                    arrives = clock + draw_exponential(arrival_stream, arrival_rate)
                    pending = self._arrival = (arrives, next(event_ids))
                else:
                    pending = self._arrival = None
                if progress_every and report.processed % progress_every == 0:
                    print(report.progress_line())
                if listener is not None:
                    listener(self, Event(clock, EventKind.ARRIVAL, event_id))
        report.wall_clock_seconds = _time.perf_counter() - started
        if progress_every:
            print(report.summary_line())
        self._state = "done"
        return report


def _allocator_name(allocator) -> str:
    """``__name__``, or for a partial its function and bound arguments.

    ``partial(first_last_fit, threshold_gbps=40)`` is named
    ``first_last_fit(threshold_gbps=40)``; whitespace is dropped so that the
    name stays one token of the header line.
    """
    if isinstance(allocator, functools.partial):
        bound = [repr(arg) for arg in allocator.args] + [
            f"{key}={value!r}" for key, value in allocator.keywords.items()]
        name = f"{_allocator_name(allocator.func)}({','.join(bound)})"
        return "".join(name.split())
    return getattr(allocator, "__name__", "unnamed")


def _sweep_run(config, allocator, algorithm_name, progress_every, pooled, profile):
    """One sweep run: its report and, from a pool, what it printed.

    A serial run prints to ``sys.stdout`` as it goes; a pooled run captures
    its ``sys.stdout``, the allocator's prints included, for the caller to
    print, so runs never share a stream.  A failed pooled run's lines travel
    back with its error as ``console_lines``.
    """
    simulator = Simulator(replace(config, profile=profile), allocator,
                          algorithm_name=algorithm_name, progress_every=progress_every)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured) if pooled else contextlib.nullcontext():
        try:
            simulator.init()
            return simulator.run(), captured.getvalue()
        except EonSimError as err:
            err.console_lines = captured.getvalue()
            raise


def sweep_reports(config: SimulatorConfig, lambdas, allocator, *,
                  algorithm_name: str | None = None,
                  workers: int = 1,
                  progress_every: int | None = None) -> list[SimulationReport]:
    """One independent simulation per arrival rate, same seeds each time.

    Each run is ``Simulator(replace(config, profile=p), allocator,
    algorithm_name=algorithm_name)``, so any allocation callable can be
    swept.  Returns the reports ordered by increasing load.  Every profile is
    built before the first run, so a rate the profile rejects raises
    :class:`ValueError` without running anything, as ``workers`` does unless
    it is an ``int`` of at least 1, and as an argument the ``Simulator``
    rejects does, before any worker process starts.  The runs share no
    mutable state and leave ``config`` as it was, so ``workers > 1`` runs
    them in up to one process per rate, with the same results.  The
    allocator then reaches the workers by pickle, by reference: a
    module-level function or a ``functools.partial`` of one works, a lambda
    does not, and module-level state it keeps changes in the workers only.

    With ``progress_every``, each run's header, progress and summary lines go
    to ``sys.stdout`` as one block per run in load order: a serial run prints
    them live, a pooled run once it is done, together with whatever the
    allocator printed during that run.  An :class:`EonSimError` of a run
    is re-raised as the same class, prefixed with the run's rate, after the
    lines that run printed; later runs print nothing.
    """
    profiles = sorted((replace(config.profile, arrival_rate=float(lam))
                       for lam in lambdas), key=lambda profile: profile.arrival_rate)
    if not profiles:
        raise ValueError("at least one arrival rate is required")
    if type(workers) is not int:
        raise ValueError(f"workers must be an int, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(profiles))
    run = functools.partial(_sweep_run, config, allocator, algorithm_name,
                            progress_every, workers > 1)
    if workers > 1:
        # The first run's Simulator rejects a bad argument here, before any
        # process starts.
        Simulator(replace(config, profile=profiles[0]), allocator,
                  algorithm_name=algorithm_name, progress_every=progress_every)
        # Imported here: it pulls in multiprocessing, which serial runs never need.
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(max_workers=workers)
    else:
        executor = contextlib.nullcontext()
    with executor as pool:
        outcomes = pool.map(run, profiles) if pool else map(run, profiles)
        reports = []
        for profile in profiles:
            try:
                report, lines = next(outcomes)
            except EonSimError as err:
                sys.stdout.write(getattr(err, "console_lines", ""))
                raise type(err)(f"sweep run at lambda={profile.arrival_rate:g} "
                                f"failed: {err}") from err
            sys.stdout.write(lines)
            reports.append(report)
    return reports
