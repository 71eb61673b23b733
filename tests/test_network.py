import random
import re

import pytest

import eonsim
from eonsim.errors import (
    AlreadyOccupiedError,
    NoSuchLinkError,
    NotOccupiedError,
    OutOfBoundsError,
)

from conftest import mask_of


def occupied_set(link):
    return {slot for slot in range(link.slot_count) if link.occupancy >> slot & 1}


class TestSlotGrid:
    def test_occupy_on_empty_grid(self, link8):
        link8.occupy_slots(0, 2)
        assert occupied_set(link8) == {0, 1}

    def test_occupy_overlap_rejected_and_grid_unchanged(self, link8):
        link8.occupy_slots(0, 2)
        before = link8.occupancy
        with pytest.raises(AlreadyOccupiedError):
            link8.occupy_slots(1, 3)
        assert link8.occupancy == before

    def test_occupy_at_320_slot_boundary(self):
        link = eonsim.Link(0, 0, 1, 10.0, 320)
        link.occupy_slots(318, 320)
        assert occupied_set(link) == {318, 319}

    @pytest.mark.parametrize("start,stop", [(-1, 2), (0, 9), (318, 321), (3, 3), (5, 2)])
    def test_occupy_out_of_bounds(self, link8, start, stop):
        with pytest.raises(OutOfBoundsError):
            link8.occupy_slots(start, stop)

    @pytest.mark.parametrize("start,stop", [(-1, 2), (0, 9), (3, 3)])
    def test_release_out_of_bounds(self, link8, start, stop):
        with pytest.raises(OutOfBoundsError, match=(
                rf"^slot range \[{start}, {stop}\) outside the 8-slot grid "
                r"of link 0$")):
            link8.release_slots(start, stop)

    def test_release_is_inverse_of_occupy(self, link8):
        link8.occupy_slots(0, 2)
        link8.release_slots(0, 2)
        assert occupied_set(link8) == set()

    def test_double_release_rejected(self, link8):
        with pytest.raises(NotOccupiedError):
            link8.release_slots(0, 2)

    def test_partial_release(self, link8):
        link8.occupy_slots(0, 4)
        link8.release_slots(0, 2)
        assert occupied_set(link8) == {2, 3}

    def test_failed_release_leaves_grid_unchanged(self, link8):
        link8.occupy_slots(0, 2)
        before = link8.occupancy
        with pytest.raises(NotOccupiedError):
            link8.release_slots(1, 4)
        assert link8.occupancy == before

    def test_is_range_free_all_free(self, link8):
        assert link8.is_range_free(0, 8)

    def test_is_range_free_sees_occupied_slot(self, link8):
        link8.occupy_slots(3, 4)
        assert not link8.is_range_free(2, 5)

    def test_is_range_free_between_occupied_blocks(self, link8):
        for start, stop in ((0, 2), (4, 7)):
            link8.occupy_slots(start, stop)
        assert link8.is_range_free(2, 4)

    def test_is_range_free_out_of_bounds(self, link8):
        with pytest.raises(OutOfBoundsError):
            link8.is_range_free(0, 9)

    def test_occupancy_view_is_read_only(self, link8):
        link8.occupy_slots(2, 4)
        grid = link8.occupancy
        assert type(grid) is int
        assert grid == mask_of([False, False, True, True, False, False, False, False])
        grid |= 1  # changes the local value only
        assert link8.occupancy == mask_of([False, False, True, True])

    def test_balanced_sequences_drain_the_grid(self):
        rng = random.Random(7)
        link = eonsim.Link(0, 0, 1, 1.0, 64)
        held = []
        for _ in range(500):
            if held and rng.random() < 0.45:
                start, stop = held.pop(rng.randrange(len(held)))
                link.release_slots(start, stop)
            else:
                start = rng.randrange(64)
                stop = min(64, start + rng.randint(1, 6))
                if link.is_range_free(start, stop):
                    link.occupy_slots(start, stop)
                    held.append((start, stop))
            assert link.occupied_count == sum(b - a for a, b in held)
        for start, stop in held:
            link.release_slots(start, stop)
        assert link.occupied_count == 0


class TestLinkConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            eonsim.Link(0, 3, 3, 1.0, 8)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            eonsim.Link(0, 0, 1, 1.0, 0)
        # A non-int count used to load and then fail run() with a TypeError.
        for slots in (8.0, True, "8"):
            with pytest.raises(ValueError, match=r"^link 0: slots must be an int, "
                                                 f"got {re.escape(repr(slots))}$"):
                eonsim.Link(0, 0, 1, 1.0, slots)
        with pytest.raises(ValueError, match="slots must be an int, got 8.0"):
            eonsim.Network.build("f", 2, [(0, 1, 1.0, 8.0), (1, 0, 1.0, 8.0)])

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            eonsim.Link(0, 0, 1, -5.0, 8)

    @pytest.mark.parametrize("length", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_length_rejected(self, length):
        with pytest.raises(ValueError, match=f"length must be finite and >= 0, "
                                             f"got {length}"):
            eonsim.Link(0, 0, 1, length, 8)

    def test_zero_length_allowed(self):
        assert eonsim.Link(0, 0, 1, 0, 8).length_km == 0.0


class TestNetwork:
    def test_link_by_endpoints_on_nsfnet(self, nsfnet):
        assert nsfnet.link_by_endpoints(0, 1) == 0

    def test_self_pair_has_no_link(self, nsfnet):
        with pytest.raises(NoSuchLinkError):
            nsfnet.link_by_endpoints(0, 0)

    def test_unconnected_pair_has_no_link(self, nsfnet):
        with pytest.raises(NoSuchLinkError):
            nsfnet.link_by_endpoints(0, 13)

    def test_unknown_link_id(self, pair_net):
        with pytest.raises(NoSuchLinkError):
            pair_net.link(99)

    def test_duplicate_directed_pair_rejected(self):
        with pytest.raises(ValueError):
            eonsim.Network.build("dup", 2, [(0, 1, 1.0, 8), (0, 1, 2.0, 8)])

    def test_duplicate_pair_message_names_both_links(self):
        with pytest.raises(ValueError) as excinfo:
            eonsim.Network.build("dup", 2, [(0, 1, 1.0, 8), (1, 0, 1.0, 8),
                                            (0, 1, 2.0, 8)])
        assert str(excinfo.value) == (
            "link 2 duplicates directed link (0 -> 1), already declared by link 0")

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(ValueError):
            eonsim.Network.build("dangling", 2, [(0, 5, 1.0, 8)])

    def test_node_ids_must_be_dense(self):
        with pytest.raises(ValueError):
            eonsim.Network("gap", [0, 2], [])

    def test_fresh_copy_is_independent(self, pair_net):
        pair_net.links[0].occupy_slots(0, 4)
        clone = pair_net.fresh_copy()
        assert clone.all_grids_free()
        assert not pair_net.all_grids_free()
        clone.links[1].occupy_slots(2, 3)
        assert pair_net.links[1].occupied_count == 0


class TestRoutes:
    def test_add_node_path_resolves_links(self, chain_net):
        routes = eonsim.RouteSet()
        route = routes.add_node_path(chain_net, [0, 1, 2])
        assert route.link_ids == (0, 2)
        assert route.length_km == 300.0

    def test_route_length_recomputes_exactly(self, nsfnet, nsfnet_routes):
        for src, dst in nsfnet_routes.pairs():
            for route in nsfnet_routes.routes_for(src, dst):
                assert sum(nsfnet.link(lid).length_km
                           for lid in route.link_ids) == route.length_km

    @pytest.mark.parametrize("src, dst, link_ids, message", [
        (1, 2, [0, 2], r"^route for \(1, 2\) starts at node 0, not 1$"),
        (0, 2, [0], r"^route for \(0, 2\) ends at node 1, not 2$"),
    ], ids=["starts", "ends"])
    def test_route_endpoints_must_match(self, chain_net, src, dst, link_ids,
                                        message):
        routes = eonsim.RouteSet()
        with pytest.raises(ValueError, match=message):
            routes.add_route(chain_net, src, dst, link_ids)

    def test_route_links_must_chain(self, chain_net):
        # starts at 0 and ends at 1, but link 0 (0->1) is not followed by
        # a link leaving node 1: link 3 is 2->1
        routes = eonsim.RouteSet()
        with pytest.raises(ValueError, match=(
                r"^route for \(0, 1\): link 0 ends at 1 but link 3 starts at 2$")):
            routes.add_route(chain_net, 0, 1, [0, 3])

    def test_route_must_not_repeat_a_link(self, pair_net):
        # 0 -> 1 -> 0 -> 1 chains, but would hold two ranges on link 0
        routes = eonsim.RouteSet()
        with pytest.raises(ValueError, match=(
                r"^route for \(0, 1\) uses link 0 more than once$")):
            routes.add_route(pair_net, 0, 1, [0, 1, 0])
        assert routes.pair_count == 0

    def test_route_needs_a_link(self, chain_net):
        routes = eonsim.RouteSet()
        with pytest.raises(ValueError, match=(
                r"^route for \(0, 2\) must contain at least one link$")):
            routes.add_route(chain_net, 0, 2, [])

    @pytest.mark.parametrize("node_path", [[], [0]])
    def test_node_path_needs_two_nodes(self, chain_net, node_path):
        routes = eonsim.RouteSet()
        message = f"node path {node_path} needs at least two nodes"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            routes.add_node_path(chain_net, node_path)

    def test_route_must_start_at_src(self, chain_net):
        routes = eonsim.RouteSet()
        with pytest.raises(ValueError):
            routes.add_route(chain_net, 1, 2, [0, 2])

    def test_route_must_end_at_dst(self, chain_net):
        routes = eonsim.RouteSet()
        with pytest.raises(ValueError):
            routes.add_route(chain_net, 0, 1, [0, 2])

    def test_routes_for_unknown_pair_is_empty(self, pair_routes):
        assert pair_routes.routes_for(1, 1) == ()

    def test_truncated_keeps_first_routes(self, nsfnet_routes):
        single = nsfnet_routes.truncated(1)
        assert single.pair_count == nsfnet_routes.pair_count
        for src, dst in single.pairs():
            kept = single.routes_for(src, dst)
            assert len(kept) == 1
            assert kept[0] == nsfnet_routes.routes_for(src, dst)[0]

    def test_truncated_rejects_zero(self, nsfnet_routes):
        with pytest.raises(ValueError):
            nsfnet_routes.truncated(0)
