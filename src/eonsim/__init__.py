"""Discrete-event simulation of spectrum allocation in elastic optical networks.

The library evaluates user-written resource-allocation algorithms under
dynamic Poisson traffic and scores them by blocking probability.  An
algorithm is a plain callable ``(context) -> verdict``; see
:mod:`eonsim.allocation` for the contract and a skeleton.

Quick start::

    import eonsim
    from eonsim import data

    network = data.load_nsfnet()
    config = eonsim.SimulatorConfig(
        network=network,
        routes=data.load_nsfnet_routes(network),
        catalog=data.load_bit_rates(),
        profile=eonsim.TrafficProfile(arrival_rate=18, departure_rate=10,
                                      goal_connections=50_000),
    )
    sim = eonsim.Simulator(config, eonsim.first_fit, algorithm_name="FF")
    sim.init()
    print(sim.run().blocking_probability)
"""

from . import errors
from .allocation import ALLOCATED, NOT_ALLOCATED, AllocationContext, LinkView, Verdict
from .algorithms import (
    ALGORITHMS,
    FreeBlock,
    SearchDirection,
    exact_fit,
    exact_free_block,
    first_fit,
    first_free_block,
    first_last_fit,
    intersection_grid,
    modulation_options,
)
from .engine import (
    ConnectionRecord,
    Event,
    EventKind,
    Simulator,
    SimulatorConfig,
    sweep_reports,
)
from .inputs import (
    load_bit_rates,
    load_network,
    load_routes,
    parse_bit_rates,
    parse_network,
    parse_routes,
)
from .network import Link, Network, Route, RouteSet
from .report import SimulationReport, write_dat
from .traffic import (
    BitRateCatalog,
    BitRateEntry,
    ModulationOption,
    RngStreams,
    Seeds,
    TrafficProfile,
    next_exponential,
    sample_bitrate,
    sample_src_dst,
    uniform_index,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ALLOCATED",
    "AllocationContext",
    "BitRateCatalog",
    "BitRateEntry",
    "ConnectionRecord",
    "Event",
    "EventKind",
    "FreeBlock",
    "Link",
    "LinkView",
    "ModulationOption",
    "NOT_ALLOCATED",
    "Network",
    "RngStreams",
    "Route",
    "RouteSet",
    "SearchDirection",
    "Seeds",
    "SimulationReport",
    "Simulator",
    "SimulatorConfig",
    "TrafficProfile",
    "Verdict",
    "errors",
    "exact_fit",
    "exact_free_block",
    "first_fit",
    "first_free_block",
    "first_last_fit",
    "intersection_grid",
    "load_bit_rates",
    "load_network",
    "load_routes",
    "modulation_options",
    "next_exponential",
    "parse_bit_rates",
    "parse_network",
    "parse_routes",
    "sample_bitrate",
    "sample_src_dst",
    "sweep_reports",
    "uniform_index",
    "write_dat",
]
