"""Exact metamorphic identities of whole runs at a load that blocks.

**Scale.**  Multiplying every link's slot count and every option's width by
``k`` multiplies every free run's start and end by ``k``, so the lowest,
highest or exact window of each search is ``k`` times the original.  FF, EF
and FLF must then give every request the same verdict and a placement ``k``
times the unscaled one.  NSFNet's 320 slots become 640 and 960 for
``k = 2, 3``, the only whole runs in the suite on grids wider than 512 slots.
"""

import pytest

import eonsim
from eonsim import (
    ALLOCATED,
    BitRateCatalog,
    BitRateEntry,
    ModulationOption,
    Network,
    Simulator,
    SimulatorConfig,
    TrafficProfile,
    data,
)

#: 150 Erlang with 1e4 requests: about 5 % of requests block on NSFNet.
PROFILE = TrafficProfile(arrival_rate=1500.0, departure_rate=10.0,
                         goal_connections=10_000)


def scaled(network, catalog, k):
    """The network and catalog with every slot count and width times ``k``."""
    wide = Network.build(network.name, network.node_count,
                         [(link.src, link.dst, link.length_km, link.slot_count * k)
                          for link in network.links])
    entries = [BitRateEntry(entry.bitrate_gbps, entry.label,
                            [ModulationOption(option.modulation,
                                              option.slot_count * k,
                                              option.reach_km)
                             for option in entry.options])
               for entry in catalog]
    return wide, BitRateCatalog(entries)


def outcomes(network, catalog, algorithm):
    """What a run staged for each request, ``None`` for a blocked one."""
    allocator = eonsim.ALGORITHMS[algorithm]
    placements = []

    def recorded(ctx):
        verdict = allocator(ctx)
        placements.append(ctx.staged if verdict is ALLOCATED else None)
        return verdict

    config = SimulatorConfig(network=network,
                             routes=data.load_nsfnet_routes(network),
                             catalog=catalog, profile=PROFILE)
    sim = Simulator(config, recorded)
    sim.init()
    sim.run()
    return placements


@pytest.mark.parametrize("catalog_name", ["full", "bpsk"])
@pytest.mark.parametrize("algorithm", ["FF", "EF", "FLF"])
def test_scaled_grid_scales_every_placement(nsfnet_template, table_catalog,
                                            bpsk_catalog, algorithm, catalog_name):
    catalog = table_catalog if catalog_name == "full" else bpsk_catalog
    base = outcomes(nsfnet_template, catalog, algorithm)
    assert 0 < base.count(None) < len(base)
    for k in (2, 3):
        expected = [None if staged is None else
                    tuple((link_id, start * k, stop * k)
                          for link_id, start, stop in staged)
                    for staged in base]
        assert outcomes(*scaled(nsfnet_template, catalog, k), algorithm) == expected, k
