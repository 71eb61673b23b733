import pytest

import eonsim
from eonsim import data


def mask_of(cells):
    """The ``int`` grid of a sequence of booleans: bit i set when cells[i]."""
    return sum(1 << i for i, taken in enumerate(cells) if taken)


@pytest.fixture
def link8():
    return eonsim.Link(0, 0, 1, 100.0, 8)


@pytest.fixture
def pair_net():
    """Two nodes joined by one 8-slot link in each direction."""
    return eonsim.Network.build("pair", 2, [(0, 1, 100.0, 8), (1, 0, 100.0, 8)])


@pytest.fixture
def pair_routes(pair_net):
    routes = eonsim.RouteSet()
    routes.add_node_path(pair_net, [0, 1])
    routes.add_node_path(pair_net, [1, 0])
    return routes


@pytest.fixture
def chain_net():
    """Three nodes in a line, both directions, 8 slots per link."""
    return eonsim.Network.build(
        "chain", 3,
        [(0, 1, 100.0, 8), (1, 0, 100.0, 8),
         (1, 2, 200.0, 8), (2, 1, 200.0, 8)])


@pytest.fixture
def chain_routes(chain_net):
    routes = eonsim.RouteSet()
    for a, b in ((0, 1), (1, 0), (1, 2), (2, 1)):
        routes.add_node_path(chain_net, [a, b])
    routes.add_node_path(chain_net, [0, 1, 2])
    routes.add_node_path(chain_net, [2, 1, 0])
    return routes


@pytest.fixture
def one_slot_catalog():
    return eonsim.BitRateCatalog([eonsim.BitRateEntry(
        10.0, "10", (eonsim.ModulationOption("BPSK", 1, 1e9),))])


@pytest.fixture(scope="session")
def nsfnet_template():
    return data.load_nsfnet()


@pytest.fixture
def nsfnet(nsfnet_template):
    return nsfnet_template.fresh_copy()


@pytest.fixture(scope="session")
def nsfnet_routes(nsfnet_template):
    return data.load_nsfnet_routes(nsfnet_template)


@pytest.fixture(scope="session")
def table_catalog():
    return data.load_bit_rates()


@pytest.fixture(scope="session")
def bpsk_catalog():
    return data.load_bpsk_bit_rates()
