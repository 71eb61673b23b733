"""Blocking-probability accounting, console line formats and ``.dat`` tables.

Console output uses three fixed, greppable line formats:

* header:   ``# eonsim algorithm=FF lambda=18 mu=10 goal=100000 erlang=1.8
  strict_audit=on seeds=12345,12347,12349,12351,12353``
* progress: ``progress requests=5000 blocked=37 blocking=7.400000e-03``
* summary:  ``done requests=100000 accepted=99963 blocked=37
  blocking=3.700000e-04 wall_seconds=4.512``

The ``.dat`` sweep table has one row per load, ``<erlang> <blocking>``,
space separated, blocking with seven significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .allocation import ALLOCATED, Verdict
from .traffic import Seeds


@dataclass
class SimulationReport:
    """Counters plus an echo of the configuration that produced them."""

    algorithm: str
    arrival_rate: float
    departure_rate: float
    goal_connections: int
    seeds: Seeds
    strict_audit: bool
    processed: int = 0
    accepted: int = 0
    blocked: int = 0
    wall_clock_seconds: float = 0.0
    per_bitrate: dict[str, list[int]] = field(default_factory=dict)

    @property
    def erlang(self) -> float:
        return self.arrival_rate / self.departure_rate

    @property
    def blocking_probability(self) -> float:
        return self.blocked / self.processed if self.processed else 0.0

    def record_outcome(self, verdict: Verdict, bitrate_label: str) -> None:
        """Count one request and its verdict, in total and under its bitrate.

        ``Simulator.init()`` creates the label's ``per_bitrate`` counter.
        """
        self.processed += 1
        counters = self.per_bitrate[bitrate_label]
        counters[0] += 1
        if verdict is ALLOCATED:
            self.accepted += 1
        else:
            self.blocked += 1
            counters[1] += 1

    # -- console line formats ------------------------------------------------

    def header_line(self) -> str:
        audit = "on" if self.strict_audit else "off"
        seeds = ",".join(str(s) for s in self.seeds)
        return (f"# eonsim algorithm={self.algorithm} "
                f"lambda={self.arrival_rate:g} mu={self.departure_rate:g} "
                f"goal={self.goal_connections} erlang={self.erlang:g} "
                f"strict_audit={audit} seeds={seeds}")

    def progress_line(self) -> str:
        return (f"progress requests={self.processed} blocked={self.blocked} "
                f"blocking={self.blocking_probability:.6e}")

    def summary_line(self) -> str:
        return (f"done requests={self.processed} accepted={self.accepted} "
                f"blocked={self.blocked} "
                f"blocking={self.blocking_probability:.6e} "
                f"wall_seconds={self.wall_clock_seconds:.3f}")

    def per_bitrate_lines(self) -> list[str]:
        lines = []
        for label, (requests, blocked) in self.per_bitrate.items():
            probability = blocked / requests if requests else 0.0
            lines.append(f"bitrate={label} requests={requests} "
                         f"blocked={blocked} blocking={probability:.6e}")
        return lines


def write_dat(results, path) -> str:
    """Write a plot-ready table: one ``<erlang> <blocking>`` row per load.

    Blocking is written with seven significant digits; a blocking of zero is
    recorded as zero, never clipped.  Returns the text written.  Refuses
    empty results without creating the file.
    """
    text = "".join(f"{erlang:g} {blocking:.6e}\n" for erlang, blocking in results)
    if not text:
        raise ValueError("no sweep results to write")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
