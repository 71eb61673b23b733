import pytest

import eonsim
from eonsim import ALLOCATED, NOT_ALLOCATED, AllocationContext
from eonsim.errors import (
    AllocatorFaultError,
    AuditViolationError,
    CommitConflictError,
    NoSuchLinkError,
    OutOfBoundsError,
    StagedOverlapError,
)

from conftest import mask_of


def make_ctx(network, routes, src, dst, entry, strict_audit=True):
    return AllocationContext(network, src, dst, routes.routes_for(src, dst),
                             entry, strict_audit=strict_audit)


@pytest.fixture
def chain_ctx(chain_net, chain_routes, one_slot_catalog):
    """Context for the 2-link route 0 -> 1 -> 2."""
    return make_ctx(chain_net, chain_routes, 0, 2, one_slot_catalog[0])


@pytest.fixture
def table_entry_1000(table_catalog):
    return next(entry for entry in table_catalog if entry.label == "1000")


class TestRouteReads:
    def test_route_count_single(self, chain_ctx):
        assert chain_ctx.route_count() == 1

    def test_route_count_three(self, nsfnet, nsfnet_routes, table_catalog):
        ctx = make_ctx(nsfnet, nsfnet_routes, 0, 5, table_catalog[0])
        assert ctx.route_count() == 3

    def test_link_counts(self, chain_net, chain_routes, one_slot_catalog):
        direct = make_ctx(chain_net, chain_routes, 0, 1, one_slot_catalog[0])
        assert direct.link_count_in_route(0) == 1
        two_hop = make_ctx(chain_net, chain_routes, 0, 2, one_slot_catalog[0])
        assert two_hop.link_count_in_route(0) == 2

    def test_route_index_out_of_range(self, chain_ctx):
        with pytest.raises(OutOfBoundsError):
            chain_ctx.link_count_in_route(1)

    def test_link_view_identity(self, chain_ctx, chain_net):
        view = chain_ctx.link_in_route(0, 1)
        assert (view.id, view.src, view.dst) == (2, 1, 2)
        assert view.length_km == 200.0
        assert view.slot_count == 8

    def test_nsfnet_views_have_320_slots(self, nsfnet, nsfnet_routes, table_catalog):
        ctx = make_ctx(nsfnet, nsfnet_routes, 3, 9, table_catalog[0])
        assert ctx.link_in_route(0, 0).slot_count == 320

    def test_link_index_out_of_range(self, chain_ctx):
        with pytest.raises(OutOfBoundsError):
            chain_ctx.link_in_route(0, chain_ctx.link_count_in_route(0))

    def test_view_exposes_no_grid_mutation(self, chain_ctx, chain_net):
        chain_net.links[0].occupy_slots(1, 2)
        view = chain_ctx.link_in_route(0, 0)
        assert not hasattr(view, "occupy_slots")
        grid = view.occupancy
        assert type(grid) is int and grid == mask_of([False, True])
        grid |= 1  # changes the local value only
        assert view.occupancy == chain_net.links[0].occupancy == mask_of([False, True])

    @pytest.mark.parametrize("slot", [-1, 8])
    def test_view_slot_out_of_range(self, chain_ctx, slot):
        view = chain_ctx.link_in_route(0, 0)
        with pytest.raises(OutOfBoundsError,
                           match=rf"^slot range \[{slot}, {slot + 1}\) outside the "
                                 rf"8-slot grid of link 0$"):
            view.is_range_free(slot, slot + 1)

    def test_view_grid_queries(self, chain_net, chain_ctx):
        chain_net.links[0].occupy_slots(3, 5)
        view = chain_ctx.link_in_route(0, 0)
        assert not view.is_range_free(3, 4)
        assert view.is_range_free(0, 1)
        assert view.is_range_free(0, 3)
        assert not view.is_range_free(2, 4)


class TestRequestReads:
    def test_slot_needs_from_bundled_table(self, table_catalog, nsfnet, nsfnet_routes):
        by_label = {entry.label: entry for entry in table_catalog}
        ctx = make_ctx(nsfnet, nsfnet_routes, 0, 1, by_label["1000"])
        # options run 64-QAM .. BPSK, so BPSK is the last index
        assert ctx.request_slots(ctx.option_count() - 1) == 80
        assert ctx.request_modulation(ctx.option_count() - 1) == "BPSK"
        ctx10 = make_ctx(nsfnet, nsfnet_routes, 0, 1, by_label["10"])
        assert all(ctx10.request_slots(i) == 1 for i in range(ctx10.option_count()))
        ctx400 = make_ctx(nsfnet, nsfnet_routes, 0, 1, by_label["400"])
        assert ctx400.request_slots(2) == 8
        assert ctx400.request_modulation(2) == "16-QAM"

    def test_bitrate_value_and_label(self, table_catalog, nsfnet, nsfnet_routes):
        for entry in table_catalog:
            ctx = make_ctx(nsfnet, nsfnet_routes, 0, 1, entry)
            assert ctx.request_bitrate() == entry.bitrate_gbps
            assert float(ctx.request_bitrate_label()) == ctx.request_bitrate()

    def test_reach_values(self, table_entry_1000, nsfnet, nsfnet_routes):
        ctx = make_ctx(nsfnet, nsfnet_routes, 0, 1, table_entry_1000)
        assert ctx.request_reach_km(0) == 80       # 64-QAM
        assert ctx.request_modulation(0) == "64-QAM"
        assert ctx.request_reach_km(5) == 5520     # BPSK
        assert ctx.request_modulation(5) == "BPSK"

    def test_option_index_out_of_range(self, chain_ctx):
        with pytest.raises(OutOfBoundsError):
            chain_ctx.request_slots(chain_ctx.option_count())
        with pytest.raises(OutOfBoundsError):
            chain_ctx.request_reach_km(99)


class TestStaging:
    def test_alloc_appends(self, chain_ctx):
        chain_ctx.alloc_slots(0, 0, 4)
        assert chain_ctx.staged == ((0, 0, 4),)

    def test_staged_overlap_rejected(self, chain_ctx):
        chain_ctx.alloc_slots(0, 0, 4)
        with pytest.raises(StagedOverlapError):
            chain_ctx.alloc_slots(0, 2, 6)

    def test_adjacent_staging_allowed(self, chain_ctx):
        chain_ctx.alloc_slots(0, 0, 4)
        chain_ctx.alloc_slots(0, 4, 6)
        assert len(chain_ctx.staged) == 2

    def test_out_of_bounds_at_grid_edge(self, nsfnet, nsfnet_routes, table_catalog):
        ctx = make_ctx(nsfnet, nsfnet_routes, 0, 1, table_catalog[0])
        with pytest.raises(OutOfBoundsError):
            ctx.alloc_slots(0, 316, 321)

    def test_unknown_link_id(self, chain_ctx):
        with pytest.raises(NoSuchLinkError):
            chain_ctx.alloc_slots(77, 0, 1)

    def test_staging_never_touches_live_grids(self, chain_net, chain_ctx):
        chain_ctx.alloc_slots(0, 0, 4)
        assert chain_net.all_grids_free()

    def test_discard_clears(self, chain_net, chain_ctx):
        chain_ctx.alloc_slots(0, 0, 4)
        chain_ctx.alloc_slots(2, 0, 4)
        chain_ctx.discard_staged()
        assert chain_ctx.staged == ()
        assert chain_net.all_grids_free()

    def test_discard_on_empty_is_noop(self, chain_ctx):
        chain_ctx.discard_staged()
        assert chain_ctx.staged == ()

    def test_stage_discard_stage_commits_only_second(self, chain_net, chain_ctx):
        chain_ctx.alloc_slots(0, 0, 2)
        chain_ctx.discard_staged()
        chain_ctx.alloc_slots(0, 4, 6)
        chain_ctx.alloc_slots(2, 4, 6)
        chain_ctx.commit_staged()
        assert chain_net.links[0].occupancy == mask_of([i in {4, 5} for i in range(8)])
        assert chain_net.links[2].occupancy == mask_of([i in {4, 5} for i in range(8)])


class TestCommit:
    def test_commit_occupies_all_links(self, chain_net, chain_ctx):
        chain_ctx.alloc_slots(0, 0, 4)
        chain_ctx.alloc_slots(2, 0, 4)
        holdings = chain_ctx.commit_staged()
        assert holdings == ((0, 0, 4), (2, 0, 4))
        assert chain_net.links[0].occupied_count == 4
        assert chain_net.links[2].occupied_count == 4
        assert chain_ctx.staged == ()

    def test_continuity_violation(self, chain_ctx, chain_net):
        chain_ctx.alloc_slots(0, 0, 4)
        chain_ctx.alloc_slots(2, 1, 5)
        with pytest.raises(AuditViolationError):
            chain_ctx.commit_staged()
        assert chain_net.all_grids_free()

    def test_contiguity_violation(self, chain_ctx, chain_net):
        chain_ctx.alloc_slots(0, 0, 2)
        chain_ctx.alloc_slots(0, 4, 6)
        with pytest.raises(AuditViolationError):
            chain_ctx.commit_staged()
        assert chain_net.all_grids_free()

    def test_adjacent_pieces_pass_audit(self, chain_ctx, chain_net):
        chain_ctx.alloc_slots(0, 0, 2)
        chain_ctx.alloc_slots(0, 2, 4)
        chain_ctx.alloc_slots(2, 0, 4)
        chain_ctx.commit_staged()
        assert chain_net.links[0].occupied_count == 4

    def test_strict_audit_rejects_empty_staging(self, chain_net, chain_ctx):
        with pytest.raises(AuditViolationError, match="nothing staged"):
            chain_ctx.commit_staged()
        assert chain_net.all_grids_free()

    def test_non_strict_mode_commits_empty_staging(self, chain_net, chain_routes,
                                                   one_slot_catalog):
        ctx = make_ctx(chain_net, chain_routes, 0, 2, one_slot_catalog[0],
                       strict_audit=False)
        assert ctx.commit_staged() == ()
        assert chain_net.all_grids_free()

    def test_non_strict_mode_skips_audit(self, chain_net, chain_routes,
                                         one_slot_catalog):
        ctx = make_ctx(chain_net, chain_routes, 0, 2, one_slot_catalog[0],
                       strict_audit=False)
        ctx.alloc_slots(0, 0, 2)
        ctx.alloc_slots(0, 4, 6)
        ctx.commit_staged()
        assert chain_net.links[0].occupancy == mask_of(
            [i in {0, 1, 4, 5} for i in range(8)])

    def test_commit_conflict_with_live_connection(self, chain_net, chain_ctx):
        chain_net.links[2].occupy_slots(0, 4)
        before = [link.occupancy for link in chain_net.links]
        chain_ctx.alloc_slots(0, 0, 4)
        chain_ctx.alloc_slots(2, 0, 4)
        with pytest.raises(CommitConflictError):
            chain_ctx.commit_staged()
        for link, snapshot in zip(chain_net.links, before):
            assert link.occupancy == snapshot

    def test_conflict_rolls_back_earlier_ranges(self, chain_net, chain_ctx):
        # link 0 commits first, link 2 then conflicts; link 0 must be restored
        chain_net.links[2].occupy_slots(2, 3)
        chain_ctx.alloc_slots(0, 0, 4)
        chain_ctx.alloc_slots(2, 0, 4)
        with pytest.raises(CommitConflictError):
            chain_ctx.commit_staged()
        assert chain_net.links[0].occupied_count == 0

    @pytest.mark.parametrize("strict_audit", [True, False])
    def test_non_integer_bound_is_an_allocator_fault(self, chain_net, chain_routes,
                                                     one_slot_catalog, strict_audit):
        # The fault is the context's to report, not the engine's, so a
        # context built by hand raises it too, when the range is staged.
        chain_net.links[1].occupy_slots(0, 3)
        before = [link.occupancy for link in chain_net.links]
        ctx = make_ctx(chain_net, chain_routes, 0, 2, one_slot_catalog[0],
                       strict_audit=strict_audit)
        ctx.alloc_slots(0, 2, 4)
        for start, stop in [(2.0, 4), (2, 4.0), (None, 4), (2, None), (-1.0, 4)]:
            with pytest.raises(AllocatorFaultError) as excinfo:
                ctx.alloc_slots(2, start, stop)
            assert type(excinfo.value) is AllocatorFaultError
            assert str(excinfo.value) == (f"staged [{start!r}, {stop!r}) on "
                                          "link 2: slot bounds must be int")
            assert excinfo.value.__cause__ is None
            assert ctx.staged == ((0, 2, 4),)
            assert [link.occupancy for link in chain_net.links] == before
        assert ctx.commit_staged() == ((0, 2, 4),)

    def test_conflict_and_violation_are_allocator_faults(self):
        assert issubclass(CommitConflictError, AllocatorFaultError)
        assert issubclass(AuditViolationError, AllocatorFaultError)


def grids(network):
    return [link.occupancy for link in network.links]


class TestPlace:
    """``place(route, start, width)``: one interval on every link of a route."""

    @pytest.fixture
    def entry_400(self, table_catalog):
        # Widths 6, 7, 8, 11, 16, 32 at reaches 80 ... 5520 km.
        return next(entry for entry in table_catalog if entry.label == "400")

    @pytest.fixture
    def ctx_400(self, nsfnet, nsfnet_routes, entry_400):
        """Pair (0, 1): routes of 1050, 2100 and 5100 km."""
        return make_ctx(nsfnet, nsfnet_routes, 0, 1, entry_400)

    def test_place_stages_the_interval_on_every_link(self, nsfnet, ctx_400):
        ctx_400.place(1, 10, 16)
        assert ctx_400.staged == ((2, 10, 26), (7, 10, 26))
        assert nsfnet.all_grids_free()
        assert ctx_400.commit_staged() == ((2, 10, 26), (7, 10, 26))
        assert ctx_400.staged == ()
        for link in nsfnet.links:
            expected = mask_of([10 <= i < 26 for i in range(320)])
            assert link.occupancy == (expected if link.id in (2, 7) else 0)

    def test_a_committed_placement_is_no_longer_staged(self, nsfnet, ctx_400):
        ctx_400.place(0, 0, 11)
        ctx_400.commit_staged()
        ctx_400.alloc_slots(5, 0, 2)
        ctx_400.alloc_slots(5, 4, 6)
        assert ctx_400.staged == ((5, 0, 2), (5, 4, 6))
        with pytest.raises(AuditViolationError, match="not contiguous"):
            ctx_400.commit_staged()

    def test_discard_drops_a_placement(self, nsfnet, ctx_400):
        ctx_400.place(0, 0, 11)
        ctx_400.discard_staged()
        assert ctx_400.staged == ()
        ctx_400.alloc_slots(0, 0, 11)
        assert ctx_400.staged == ((0, 0, 11),)

    def place_refused(self, ctx, network, error, message, *args):
        before, staged = grids(network), ctx.staged
        with pytest.raises(error) as excinfo:
            ctx.place(*args)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message
        assert grids(network) == before
        assert ctx.staged == staged

    @pytest.mark.parametrize("route", [3, -1])
    def test_route_index_out_of_range(self, nsfnet, ctx_400, route):
        self.place_refused(ctx_400, nsfnet, OutOfBoundsError,
                           f"route index {route} out of range [0, 3)",
                           route, 0, 11)

    def test_start_below_zero(self, nsfnet, ctx_400):
        self.place_refused(ctx_400, nsfnet, OutOfBoundsError,
                           "staged range [-1, 10) outside the 320-slot grid "
                           "of link 0", 0, -1, 11)

    def test_stop_one_slot_beyond_the_grid(self, nsfnet, ctx_400):
        self.place_refused(ctx_400, nsfnet, OutOfBoundsError,
                           "staged range [310, 321) outside the 320-slot grid "
                           "of link 0", 0, 310, 11)
        ctx_400.place(0, 309, 11)  # the last slot itself is in the grid
        assert ctx_400.staged == ((0, 309, 320),)

    @pytest.mark.parametrize("start, width, shown", [
        (2.0, 11, "[2.0, 13.0)"), (2, 11.0, "[2, 13.0)"),
        (None, 11, "[None, None)"), (2, None, "[2, None)")])
    def test_non_integer_bound(self, nsfnet, ctx_400, start, width, shown):
        self.place_refused(ctx_400, nsfnet, AllocatorFaultError,
                           f"staged {shown} on link 0: slot bounds must be int",
                           0, start, width)

    @pytest.mark.parametrize("route, width, admitted", [
        (0, 6, "[11, 16, 32]"),   # 64-QAM reaches 80 km, route 0 is 1050 km
        (1, 11, "[16, 32]"),      # 8-QAM reaches 1360 km, route 1 is 2100 km
        (0, 12, "[11, 16, 32]"),  # no option is 12 slots wide
    ])
    def test_width_the_routes_reach_rules_out(self, nsfnet, ctx_400, route,
                                              width, admitted):
        self.place_refused(ctx_400, nsfnet, AuditViolationError,
                           f"width {width} is not admissible on route {route}, "
                           f"whose options' reach admits widths {admitted}",
                           route, 0, width)

    def test_place_after_alloc_slots(self, nsfnet, ctx_400):
        ctx_400.alloc_slots(5, 0, 2)
        self.place_refused(ctx_400, nsfnet, StagedOverlapError,
                           "place(0, 0, 11) with ranges already staged: a "
                           "placement is the request's only staging", 0, 0, 11)

    def test_place_after_place(self, nsfnet, ctx_400):
        ctx_400.place(0, 0, 11)
        self.place_refused(ctx_400, nsfnet, StagedOverlapError,
                           "place(1, 20, 16) with ranges already staged: a "
                           "placement is the request's only staging", 1, 20, 16)

    def test_alloc_slots_after_place(self, nsfnet, ctx_400):
        ctx_400.place(0, 0, 11)
        with pytest.raises(StagedOverlapError) as excinfo:
            ctx_400.alloc_slots(5, 0, 2)
        assert str(excinfo.value) == ("staged range [0, 2) on link 5 after "
                                      "place(): a placement is the request's "
                                      "only staging")
        assert nsfnet.all_grids_free()
        assert ctx_400.staged == ((0, 0, 11),)

    def test_commit_conflict_touches_no_grid(self, nsfnet, ctx_400):
        nsfnet.links[7].occupy_slots(25, 26)  # a live connection
        before = grids(nsfnet)
        ctx_400.place(1, 10, 16)
        with pytest.raises(CommitConflictError) as excinfo:
            ctx_400.commit_staged()
        assert str(excinfo.value) == (
            "staged range is no longer free at commit time: "
            "link 7: range [10, 26) is not entirely free")
        assert grids(nsfnet) == before
        assert ctx_400.staged == ((2, 10, 26), (7, 10, 26))

    def test_a_placement_needs_no_audit(self, nsfnet, nsfnet_routes, entry_400):
        # The audit reads alloc_slots ranges only: run on a placement, it
        # would refuse it as "nothing staged".
        for strict_audit in (True, False):
            ctx = make_ctx(nsfnet, nsfnet_routes, 0, 1, entry_400,
                           strict_audit=strict_audit)
            ctx.place(2, 100 * strict_audit, 32)
            ctx.commit_staged()
        assert nsfnet.links[4].occupied_count == 64


class TestVerdicts:
    def test_module_constants(self):
        assert ALLOCATED is eonsim.Verdict.ALLOCATED
        assert NOT_ALLOCATED is eonsim.Verdict.NOT_ALLOCATED
        assert ALLOCATED is not NOT_ALLOCATED
