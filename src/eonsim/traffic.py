"""Random request stream: seeded, mutually independent generator streams.

Reproducibility contract: every stream is a CPython Mersenne Twister
(``random.Random``) and only its ``random()`` and ``getrandbits()`` methods
are ever drawn.  Those two are the methods CPython guarantees to reproduce
the same sequence for a given seed on every platform and interpreter
version, so a seed vector fully determines the request stream everywhere.
All distributions below are built on top of those two primitives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral
from random import Random
from typing import NamedTuple


class Seeds(NamedTuple):
    """Seed vector for the five independent streams."""

    arrival: int = 12345
    departure: int = 12347
    source: int = 12349
    destination: int = 12351
    bitrate: int = 12353


class RngStreams:
    """Five independent seeded streams, one per random quantity.

    Keeping the streams separate means, for example, that changing only the
    bitrate seed leaves the arrival/departure/source/destination draws
    bit-identical.
    """

    __slots__ = ("arrival", "departure", "source", "destination", "bitrate")

    def __init__(self, seeds: Seeds = Seeds()):
        self.arrival = Random(seeds.arrival)
        self.departure = Random(seeds.departure)
        self.source = Random(seeds.source)
        self.destination = Random(seeds.destination)
        self.bitrate = Random(seeds.bitrate)


def _check_positive(what: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class TrafficProfile:
    """Arrival rate, departure rate and request count of one run.

    Offered load in Erlang is ``arrival_rate / departure_rate``.
    """

    arrival_rate: float = 3.0
    departure_rate: float = 10.0
    goal_connections: int = 100_000

    def __post_init__(self):
        _check_positive("arrival rate", self.arrival_rate)
        _check_positive("departure rate", self.departure_rate)
        goal = self.goal_connections
        if isinstance(goal, bool) or not isinstance(goal, Integral) or goal < 1:
            raise ValueError(f"goal connections must be an integer >= 1, got {goal!r}")

    @property
    def erlang(self) -> float:
        return self.arrival_rate / self.departure_rate


@dataclass(frozen=True)
class ModulationOption:
    """One usable modulation for a bitrate: label, slot need and reach."""

    modulation: str
    slot_count: int
    reach_km: float

    def __post_init__(self):
        if type(self.slot_count) is not int:
            raise ValueError(f"modulation {self.modulation!r}: slots must be an "
                             f"int, got {self.slot_count!r}")
        if self.slot_count < 1:
            raise ValueError(f"modulation {self.modulation!r}: slots must be >= 1, "
                             f"got {self.slot_count}")
        _check_positive(f"modulation {self.modulation!r}: reach", self.reach_km)


@dataclass(frozen=True)
class BitRateEntry:
    """A bitrate with its modulation options in trial order (fewest slots first)."""

    bitrate_gbps: float
    label: str
    options: tuple[ModulationOption, ...]

    def __post_init__(self):
        _check_positive("bitrate", self.bitrate_gbps)
        # A copy, so that the caller's list can no longer change the entry.
        object.__setattr__(self, "options", tuple(self.options or ()))
        if not self.options:
            raise ValueError(f"bitrate {self.label!r} needs at least one option")


class BitRateCatalog(Sequence):
    """Ordered bitrate entries; entry order matches the input document.

    At least one entry, no two with one label (they would share a report
    counter) or one bitrate: labels such as ``"10"`` and ``"10.0"`` would
    otherwise make that bitrate twice as likely to be drawn.  The entries
    cannot change once checked, and unpickling checks them again.
    """

    __slots__ = ("_entries", "__weakref__")

    def __init__(self, entries: Sequence[BitRateEntry]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("a bitrate catalog needs at least one entry")
        labels = {}
        for entry in entries:
            if entry.bitrate_gbps in labels:
                raise ValueError(f"bitrate labels {labels[entry.bitrate_gbps]!r} "
                                 f"and {entry.label!r} both give "
                                 f"{entry.bitrate_gbps:g} Gbps")
            if entry.label in labels.values():
                raise ValueError(f"bitrate label {entry.label!r} names two entries")
            labels[entry.bitrate_gbps] = entry.label
        self._entries = entries

    def __reduce__(self):
        return type(self), (self._entries,)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> BitRateEntry:
        return self._entries[index]


_INF = math.inf


def next_exponential(stream: Random, rate: float) -> float:
    """One exponential inter-event time, ``-ln(U)/rate`` with U in (0, 1).

    ``rate`` must be finite and > 0, as :class:`TrafficProfile` requires;
    otherwise :class:`ValueError`.  Always
    strictly positive; advances the stream by one ``random()`` draw
    (a zero draw, probability 2**-53, is redrawn).
    """
    if not 0.0 < rate < _INF:  # also false for NaN
        raise ValueError(f"rate must be finite and > 0, got {rate}")
    u = stream.random()
    while u <= 0.0:
        u = stream.random()
    return -math.log(u) / rate


def uniform_index(stream: Random, count: int) -> int:
    """Exactly uniform integer in [0, count) via rejection on getrandbits."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count == 1:
        return 0
    bits = (count - 1).bit_length()
    value = stream.getrandbits(bits)
    while value >= count:
        value = stream.getrandbits(bits)
    return value


def sample_src_dst(streams: RngStreams, node_count: int) -> tuple[int, int]:
    """Uniform ordered node pair with distinct endpoints.

    The source is drawn from the source stream; the destination from the
    destination stream, redrawn until it differs from the source (which
    keeps it uniform over the remaining nodes).
    """
    if node_count < 2:
        raise ValueError(
            f"need at least 2 nodes to sample a pair, got {node_count}"
        )
    src = uniform_index(streams.source, node_count)
    dst = uniform_index(streams.destination, node_count)
    while dst == src:
        dst = uniform_index(streams.destination, node_count)
    return src, dst


def sample_bitrate(stream: Random, catalog: BitRateCatalog) -> int:
    """Uniform index into the catalog entries."""
    count = len(catalog)
    if count == 0:
        raise ValueError("cannot sample from an empty bitrate catalog")
    return uniform_index(stream, count)
