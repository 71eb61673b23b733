"""Outside-in tracing of one simulation run.

The library has no tracing of its own, so this module rebinds the public
entry points of each layer (module attributes and class methods) to timing
wrappers, in the traced worker process only, and restores them after the
run.  Each wrapper keeps a span's self time: its duration minus the
durations of the spans it called.  Work the benchmark itself does inside a
run (placement recording, the event listener) is booked as
``trace.bookkeeping``, so the self times, the bookkeeping and the engine
residual add up exactly to the traced ``run()`` time.
"""

from __future__ import annotations

import hashlib
import types
from time import perf_counter_ns

#: (span name, owner, attribute) per traced entry point.  The owner is a
#: submodule or a class, looked up as an attribute of the ``eonsim`` package.
LAYER_ENTRY_POINTS = (
    ("traffic.src_dst", "engine", "sample_src_dst"),
    ("traffic.bitrate", "engine", "sample_bitrate"),
    ("traffic.exponential", "engine", "next_exponential"),
    ("algorithms.options_filter", "algorithms", "modulation_options"),
    ("algorithms.grid", "algorithms", "intersection_grid"),
    ("algorithms.first_free", "algorithms", "first_free_block"),
    ("algorithms.exact_free", "algorithms", "exact_free_block"),
    ("allocation.stage", "AllocationContext", "alloc_slots"),
    ("allocation.commit", "AllocationContext", "commit_staged"),
    ("network.release", "Link", "release_slots"),
    ("report.record", "SimulationReport", "record_outcome"),
)
SEARCH = "algorithms.search"
QUEUE = "engine.queue"
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Span accounting for one run; create one per run."""

    def __init__(self, eonsim):
        self._eonsim = eonsim
        # One accumulator of nested-span time per open span; the bottom
        # entry belongs to run() itself.
        self._stack = [0]
        self.cells: dict[str, list[int]] = {}  # name -> [self ns, calls]
        self.queue_peak = 0
        self.placements: list[tuple] = []
        self.arrival_ns: list[int] = []
        self._last_event_end = 0
        self._restore: list[tuple[object, str, object]] = []
        self._book = self._cell(BOOKKEEPING)
        self._arrival = eonsim.EventKind.ARRIVAL
        self.run_ns = 0

    def _cell(self, name: str) -> list[int]:
        return self.cells.setdefault(name, [0, 0])

    def wrap(self, name: str, fn):
        cell = self._cell(name)
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed - stack.pop()
                cell[1] += 1
                stack[-1] += elapsed

        return traced

    def wrap_allocator(self, fn):
        """The allocator span, recording ``ctx.staged`` of every acceptance."""
        cell = self._cell(SEARCH)
        book = self._book
        stack = self._stack
        clock = perf_counter_ns
        allocated = self._eonsim.ALLOCATED
        placements = self.placements

        def traced(ctx):
            stack.append(0)
            start = clock()
            try:
                verdict = fn(ctx)
            finally:
                end = clock()
                cell[0] += end - start - stack.pop()
                cell[1] += 1
            if verdict is allocated:
                placements.append(ctx.staged)
            done = clock()
            book[0] += done - end
            stack[-1] += done - start
            return verdict

        return traced

    def event_listener(self, sim, event):
        """Host time per arrival event: from the previous event's end to now."""
        now = perf_counter_ns()
        if event.kind is self._arrival:
            self.arrival_ns.append(now - self._last_event_end)
        self._last_event_end = end = perf_counter_ns()
        self._book[0] += end - now
        self._stack[-1] += end - now

    def _rebind(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Rebind every layer entry point; undo with :meth:`uninstall`."""
        engine = self._eonsim.engine
        for name, owner_name, attribute in LAYER_ENTRY_POINTS:
            owner = getattr(self._eonsim, owner_name)
            self._rebind(owner, attribute,
                         self.wrap(name, getattr(owner, attribute)))
        heapq = engine.heapq
        push = self.wrap(QUEUE, heapq.heappush)
        tracer = self

        def heappush(heap, item):
            push(heap, item)
            if len(heap) > tracer.queue_peak:
                tracer.queue_peak = len(heap)

        self._rebind(engine, "heapq", types.SimpleNamespace(
            heappush=heappush, heappop=self.wrap(QUEUE, heapq.heappop)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def run(self, sim):
        """``sim.run()`` with every layer traced; returns the report."""
        self.install()
        try:
            start = perf_counter_ns()
            self._last_event_end = start
            report = sim.run()
            self.run_ns = perf_counter_ns() - start
        finally:
            self.uninstall()
        return report

    @property
    def engine_self_ns(self) -> int:
        """Traced run() time not covered by any span: the engine residual."""
        return self.run_ns - self._stack[0]

    @property
    def balanced(self) -> bool:
        """Every span opened during the run was closed."""
        return len(self._stack) == 1

    def placement_digest(self) -> str:
        digest = hashlib.sha256()
        for staged in self.placements:
            digest.update(repr(staged).encode())
            digest.update(b";")
        return digest.hexdigest()
