import dataclasses
import hashlib
import random

import pytest

import eonsim
from eonsim import (
    ALLOCATED,
    NOT_ALLOCATED,
    AllocationContext,
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

from conftest import mask_of

LOW = SearchDirection.LOW_TO_HIGH
HIGH = SearchDirection.HIGH_TO_LOW


def grid(size, occupied=()):
    return mask_of([slot in occupied for slot in range(size)])


def make_ctx(network, routes, src, dst, entry, strict_audit=True):
    return AllocationContext(network, src, dst, routes.routes_for(src, dst),
                             entry, strict_audit=strict_audit)


# -- brute-force oracles -------------------------------------------------------

def brute_first(cells, size, high_to_low=False):
    n = len(cells)
    starts = [i for i in range(n - size + 1) if not any(cells[i:i + size])]
    if not starts:
        return None
    return starts[-1] if high_to_low else starts[0]


def brute_exact(cells, size):
    runs = []
    i = 0
    n = len(cells)
    while i < n:
        if not cells[i]:
            j = i
            while j < n and not cells[j]:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    for start, stop in runs:
        if stop - start == size:
            return start
    return None


def scan_starts(cells, size):
    """Every start of ``size`` free slots, by a prefix-sum scan of the grid."""
    prefix = [0]
    for cell in cells:
        prefix.append(prefix[-1] + bool(cell))
    return [i for i in range(len(cells) - size + 1)
            if prefix[i + size] == prefix[i]]


def boundary_grids(n, rng, random_count):
    """All-free, all-occupied, top-/bottom-k-free and random grids of n slots."""
    grids = [[False] * n, [True] * n]
    for k in sorted({1, 2, n // 2, n - 1} & set(range(1, n))):
        grids.append([i < n - k for i in range(n)])   # only the top k free
        grids.append([i >= k for i in range(n)])      # only the bottom k free
    for _ in range(random_count):
        density = rng.choice((0.05, 0.2, 0.5, 0.8))
        grids.append([rng.random() < density for _ in range(n)])
    return grids


GRID_SIZES = [1, 63, 64, 65, 127, 128, 129, 320]


class TestIntersectionGrid:
    def test_single_link_route_equals_its_grid(self, chain_net, chain_routes,
                                               one_slot_catalog):
        chain_net.links[0].occupy_slots(1, 3)
        ctx = make_ctx(chain_net, chain_routes, 0, 1, one_slot_catalog[0])
        joint = intersection_grid(ctx, 0)
        assert joint == chain_net.links[0].occupancy == grid(8, {1, 2})
        joint |= 1  # a detached value, never the live grid
        assert not chain_net.links[0].occupancy & 1

    def test_union_of_occupied_sets(self, chain_net, chain_routes,
                                    one_slot_catalog):
        chain_net.links[0].occupy_slots(0, 2)
        chain_net.links[2].occupy_slots(3, 4)
        ctx = make_ctx(chain_net, chain_routes, 0, 2, one_slot_catalog[0])
        assert intersection_grid(ctx, 0) == grid(8, {0, 1, 3})

    def test_all_free_links_give_all_free_grid(self, chain_net, chain_routes,
                                               one_slot_catalog):
        ctx = make_ctx(chain_net, chain_routes, 0, 2, one_slot_catalog[0])
        assert intersection_grid(ctx, 0) == 0

    def test_heterogeneous_slot_counts(self):
        # A route cannot mix grid sizes: the network that would hold it is
        # rejected when it is built.
        with pytest.raises(ValueError, match="link 1 has 16 slots but link 0 "
                                             "has 8: all links need one slot count"):
            eonsim.Network.build("mixed", 3, [(0, 1, 1.0, 8), (1, 2, 1.0, 16)])

    def test_does_not_build_the_search_plan(self, chain_net, chain_routes,
                                            one_slot_catalog):
        chain_net.links[2].occupy_slots(5, 7)
        ctx = make_ctx(chain_net, chain_routes, 0, 2, one_slot_catalog[0])
        assert intersection_grid(ctx, 0) == grid(8, {5, 6})
        assert ctx._plan is None


class TestFirstFreeBlock:
    def test_low_to_high_takes_first_gap(self):
        assert first_free_block(grid(8, {0, 1, 4}), 8, 2, LOW) == FreeBlock(2, 4)

    def test_high_to_low_takes_last_gap(self):
        assert first_free_block(grid(8, {0, 1, 4}), 8, 2, HIGH) == FreeBlock(6, 8)

    def test_insufficient_space(self):
        assert first_free_block(grid(8, {2}), 8, 8) is None

    def test_block_larger_than_grid(self):
        assert first_free_block(grid(8), 8, 9) is None

    def test_all_free_extremes(self):
        assert first_free_block(grid(320), 320, 4, LOW) == FreeBlock(0, 4)
        assert first_free_block(grid(320), 320, 32, HIGH) == FreeBlock(288, 320)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            first_free_block(grid(8), 8, 0)


class TestExactFreeBlock:
    def test_picks_exactly_matching_run(self):
        # maximal free runs [0, 3) and [5, 7)
        cells = grid(8, {3, 4, 7})
        assert exact_free_block(cells, 8, 2) == FreeBlock(5, 7)
        assert exact_free_block(cells, 8, 3) == FreeBlock(0, 3)

    def test_all_free_grid_has_only_one_maximal_run(self):
        assert exact_free_block(grid(8), 8, 3) is None
        assert exact_free_block(grid(8), 8, 8) == FreeBlock(0, 8)

    def test_no_match(self):
        assert exact_free_block(grid(8, {0, 1, 2, 3, 4, 5, 6, 7}), 8, 1) is None

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^block size must be >= 1, got 0$"):
            exact_free_block(grid(8), 8, 0)


class TestGridType:
    @pytest.mark.parametrize("kernel", [first_free_block, exact_free_block])
    def test_list_grid_raises_type_error(self, kernel):
        cells = [True, False, False, True, False, False, False, False]
        with pytest.raises(TypeError,
                           match=r"^a grid must be an int bitmask, got list$"):
            kernel(cells, 8, 2)

    @pytest.mark.parametrize("slot_count", [0, -1])
    @pytest.mark.parametrize("kernel", [first_free_block, exact_free_block])
    def test_slot_count_below_one_raises_value_error(self, kernel, slot_count):
        with pytest.raises(ValueError,
                           match=rf"^slot_count must be >= 1, got {slot_count}$"):
            kernel(0, slot_count, 1)


class TestOracleEquivalence:
    @staticmethod
    def assert_kernels_match(cells, size):
        occ = mask_of(cells)
        n = len(cells)
        for high in (False, True):
            got = first_free_block(occ, n, size, HIGH if high else LOW)
            expected = brute_first(cells, size, high)
            assert (got.start if got else None) == expected, (cells, size, high)
        got_exact = exact_free_block(occ, n, size)
        assert ((got_exact.start if got_exact else None)
                == brute_exact(cells, size)), (cells, size)

    def test_random_grids_match_brute_force(self):
        rng = random.Random(2024)
        for _ in range(1_000):
            n = rng.randint(1, 16)
            cells = [rng.random() < rng.choice((0.2, 0.5, 0.8)) for _ in range(n)]
            self.assert_kernels_match(cells, rng.randint(1, n))

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 320])
    def test_word_boundary_grids_match_brute_force(self, n):
        # Grids whose free runs end at bit 63/64/65, 127/128/129 or at the
        # top of a 320-slot grid, where a mask shift or width can slip by one.
        rng = random.Random(n)
        grids = [[False] * n, [True] * n]
        for k in (1, 2, n // 2, n - 1):
            grids.append([i < n - k for i in range(n)])   # only the top k free
            grids.append([i >= k for i in range(n)])      # only the bottom k free
        for _ in range(60):
            density = rng.choice((0.05, 0.2, 0.5, 0.8))
            grids.append([rng.random() < density for _ in range(n)])
        for cells in grids:
            for size in sorted({1, 2, 3, 31, 32, 33, 63, 64, 65, n - 1, n, n + 1}):
                self.assert_kernels_match(cells, size)


    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_every_width_matches_a_scan(self, n):
        rng = random.Random(1000 + n)
        for cells in boundary_grids(n, rng, random_count=8):
            occ = mask_of(cells)
            for size in range(1, n + 1):
                starts = scan_starts(cells, size)
                low = first_free_block(occ, n, size, LOW)
                high = first_free_block(occ, n, size, HIGH)
                exact = exact_free_block(occ, n, size)
                assert (low.start if low else None) == (
                    starts[0] if starts else None), (cells, size)
                assert (high.start if high else None) == (
                    starts[-1] if starts else None), (cells, size)
                assert ((exact.start if exact else None)
                        == brute_exact(cells, size)), (cells, size)


class TestModulationOptions:
    def entry(self, catalog, label):
        return next(e for e in catalog if e.label == label)

    def ctx_for_length(self, length_km, entry):
        net = eonsim.Network.build("len", 2, [(0, 1, length_km, 320)])
        routes = eonsim.RouteSet()
        routes.add_node_path(net, [0, 1])
        return make_ctx(net, routes, 0, 1, entry)

    def test_midrange_route_filters_short_reaches(self, table_catalog):
        ctx = self.ctx_for_length(900.0, self.entry(table_catalog, "100"))
        options = modulation_options(ctx, 0)
        assert [ctx.request_modulation(i) for i in options] == ["8-QAM", "QPSK", "BPSK"]
        assert [ctx.request_slots(i) for i in options] == [3, 4, 8]

    def test_short_route_admits_all_six(self, table_catalog):
        ctx = self.ctx_for_length(80.0, self.entry(table_catalog, "100"))
        options = modulation_options(ctx, 0)
        assert len(options) == 6
        assert ctx.request_modulation(options[0]) == "64-QAM"

    def test_route_beyond_every_reach(self, table_catalog):
        ctx = self.ctx_for_length(6000.0, self.entry(table_catalog, "100"))
        assert modulation_options(ctx, 0) == []

    def test_unbounded_reach_catalog_never_filters(self, bpsk_catalog):
        ctx = self.ctx_for_length(6000.0, bpsk_catalog[0])
        assert modulation_options(ctx, 0) == [0]


class TestFirstFit:
    def test_all_free_network_places_at_zero(self, nsfnet, nsfnet_routes, table_catalog):
        entry = next(e for e in table_catalog if e.label == "400")
        ctx = make_ctx(nsfnet, nsfnet_routes, 0, 1, entry)
        assert first_fit(ctx) is ALLOCATED
        need = ctx.request_slots(modulation_options(ctx, 0)[0])
        route_links = ctx.route_link_ids(0)
        assert set(ctx.staged) == {(lid, 0, need) for lid in route_links}

    def test_skips_occupied_prefix(self):
        # slots {0..4} busy on one route link, need 4 -> [5, 9) on every link
        net = eonsim.Network.build(
            "wide", 3, [(0, 1, 100.0, 320), (1, 2, 100.0, 320)])
        routes = eonsim.RouteSet()
        routes.add_node_path(net, [0, 1, 2])
        catalog = eonsim.BitRateCatalog([eonsim.BitRateEntry(
            40.0, "40", (eonsim.ModulationOption("BPSK", 4, 1e9),))])
        net.links[0].occupy_slots(0, 5)
        ctx = make_ctx(net, routes, 0, 2, catalog[0])
        assert first_fit(ctx) is ALLOCATED
        assert set(ctx.staged) == {(0, 5, 9), (1, 5, 9)}

    def test_saturated_routes_block(self, pair_net, pair_routes, one_slot_catalog):
        pair_net.links[0].occupy_slots(0, 8)
        ctx = make_ctx(pair_net, pair_routes, 0, 1, one_slot_catalog[0])
        assert first_fit(ctx) is NOT_ALLOCATED
        assert ctx.staged == ()

    def test_falls_through_to_second_route(self, table_catalog):
        net = eonsim.Network.build(
            "tri", 3, [(0, 1, 100.0, 16), (0, 2, 100.0, 16), (2, 1, 100.0, 16)])
        routes = eonsim.RouteSet()
        routes.add_node_path(net, [0, 1])
        routes.add_node_path(net, [0, 2, 1])
        catalog = eonsim.BitRateCatalog([eonsim.BitRateEntry(
            40.0, "40", (eonsim.ModulationOption("BPSK", 4, 1e9),))])
        net.links[0].occupy_slots(0, 14)  # only 2 free on the direct route
        ctx = make_ctx(net, routes, 0, 1, catalog[0])
        assert first_fit(ctx) is ALLOCATED
        assert set(ctx.staged) == {(1, 0, 4), (2, 0, 4)}


class TestSearchAgainstBruteForce:
    """The bundled search against a per-option brute force over live grids."""

    @staticmethod
    def brute_search(ctx, pick):
        for route in range(ctx.route_count()):
            links = [ctx.link_in_route(route, i)
                     for i in range(ctx.link_count_in_route(route))]
            cells = [any(view.occupancy >> slot & 1 for view in links)
                     for slot in range(links[0].slot_count)]
            for option in range(ctx.option_count()):
                if ctx.request_reach_km(option) < ctx.route_length_km(route):
                    continue
                size = ctx.request_slots(option)
                start = pick(cells, size)
                if start is not None:
                    return {(view.id, start, start + size) for view in links}
        return None

    @staticmethod
    def fragment(network, rng):
        for link in network.links:
            for _ in range(rng.randint(0, 40)):
                start = rng.randrange(link.slot_count)
                stop = min(link.slot_count, start + rng.randint(1, 12))
                if link.is_range_free(start, stop):
                    link.occupy_slots(start, stop)

    def test_repeated_widths_match_per_option_search(self, nsfnet, nsfnet_routes,
                                                     table_catalog):
        # The bundled catalog repeats widths (10 Gbps is 1 slot under all six
        # modulations), which the search tries once per distinct width.
        assert any(len({o.slot_count for o in entry.options}) < len(entry.options)
                   for entry in table_catalog)

        def exact_then_first(cells, size):
            start = brute_exact(cells, size)
            return brute_first(cells, size) if start is None else start

        rng = random.Random(5)
        pairs = list(nsfnet_routes.pairs())
        for _ in range(30):
            network = nsfnet.fresh_copy()
            self.fragment(network, rng)
            for _ in range(10):
                src, dst = rng.choice(pairs)
                entry = rng.choice(table_catalog)
                high = entry.bitrate_gbps >= 100.0
                pickers = {
                    first_fit: brute_first,
                    exact_fit: exact_then_first,
                    first_last_fit: lambda cells, size: brute_first(cells, size, high),
                }
                for algorithm, pick in pickers.items():
                    ctx = make_ctx(network, nsfnet_routes, src, dst, entry)
                    verdict = algorithm(ctx)
                    expected = self.brute_search(ctx, pick)
                    if expected is None:
                        assert verdict is NOT_ALLOCATED
                    else:
                        assert verdict is ALLOCATED
                        assert set(ctx.staged) == expected

    def test_mixed_slot_counts_raise_when_searched(self):
        # No search ever meets a route of mixed grid sizes: the network is
        # rejected first, naming both links and both counts.
        with pytest.raises(ValueError, match="link 2 has 16 slots but link 0 has 8"):
            eonsim.Network.build("mixed", 3, [(0, 1, 1.0, 8), (1, 0, 1.0, 8),
                                              (1, 2, 1.0, 16)])


    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_every_width_matches_a_scan(self, n):
        # A two-link route whose joint grid is the test grid: each occupied
        # slot is taken on one link or on both, so the search must OR them.
        option = eonsim.ModulationOption("BPSK", 1, 1e9)
        rng = random.Random(2000 + n)
        for cells in boundary_grids(n, rng, random_count=6):
            net = eonsim.Network.build("line", 3,
                                       [(0, 1, 10.0, n), (1, 2, 10.0, n)])
            for slot, taken in enumerate(cells):
                if taken:
                    for link_id in rng.choice(((0,), (1,), (0, 1))):
                        net.links[link_id].occupy_slots(slot, slot + 1)
            routes = eonsim.RouteSet()
            routes.add_node_path(net, [0, 1, 2])
            for size in range(1, n + 1):
                starts = scan_starts(cells, size)
                exact = brute_exact(cells, size)
                lowest = starts[0] if starts else None
                highest = starts[-1] if starts else None
                cases = [(first_fit, 10.0, lowest),
                         (exact_fit, 10.0, lowest if exact is None else exact),
                         (first_last_fit, 10.0, lowest),
                         (first_last_fit, 400.0, highest)]
                for algorithm, gbps, start in cases:
                    entry = eonsim.BitRateEntry(
                        gbps, f"{gbps:g}",
                        (dataclasses.replace(option, slot_count=size),))
                    ctx = make_ctx(net, routes, 0, 2, entry)
                    verdict = algorithm(ctx)
                    if start is None:
                        assert verdict is NOT_ALLOCATED, (cells, size, algorithm)
                    else:
                        assert verdict is ALLOCATED, (cells, size, algorithm)
                        assert ctx.staged == ((0, start, start + size),
                                              (1, start, start + size)), (
                            cells, size, algorithm)


class TestFirstFitOnPublicCalls:
    """A user's First Fit written on public calls only, against the bundled one."""

    @staticmethod
    def public_first_fit(ctx):
        for route in range(ctx.route_count()):
            occupied = intersection_grid(ctx, route)
            slot_count = ctx.link_in_route(route, 0).slot_count
            for option in modulation_options(ctx, route):
                block = first_free_block(occupied, slot_count,
                                         ctx.request_slots(option))
                if block is not None:
                    for link_id in ctx.route_link_ids(route):
                        ctx.alloc_slots(link_id, block.start, block.stop)
                    return ALLOCATED
        return NOT_ALLOCATED

    @staticmethod
    def run(allocator, network, routes, catalog):
        digest = hashlib.sha256()

        def recording(ctx):
            verdict = allocator(ctx)
            if verdict is ALLOCATED:
                digest.update(repr(ctx.staged).encode())
                digest.update(b";")
            return verdict

        config = eonsim.SimulatorConfig(
            network=network, routes=routes, catalog=catalog,
            profile=eonsim.TrafficProfile(arrival_rate=1500.0, departure_rate=10.0,
                                          goal_connections=2000))
        sim = eonsim.Simulator(config, recording, algorithm_name="FF")
        sim.init()
        report = sim.run()
        return (report.processed, report.accepted, report.blocked,
                digest.hexdigest())

    def test_matches_bundled_first_fit(self, nsfnet, nsfnet_routes, table_catalog):
        mine = self.run(self.public_first_fit, nsfnet, nsfnet_routes, table_catalog)
        bundled = self.run(first_fit, nsfnet, nsfnet_routes, table_catalog)
        assert mine == bundled
        assert mine[2] > 0  # 150 Erlang blocks, so every route is searched

    @staticmethod
    def placing_first_fit(ctx):
        """``public_first_fit`` with one ``place`` per placement."""
        for route in range(ctx.route_count()):
            occupied = intersection_grid(ctx, route)
            slot_count = ctx.link_in_route(route, 0).slot_count
            for option in modulation_options(ctx, route):
                block = first_free_block(occupied, slot_count,
                                         ctx.request_slots(option))
                if block is not None:
                    ctx.place(route, block.start, block.length)
                    return ALLOCATED
        return NOT_ALLOCATED

    @staticmethod
    def per_request(allocator, network, routes, catalog):
        """Each request's verdict and staging, and the blocked count."""
        outcomes = []

        def recording(ctx):
            verdict = allocator(ctx)
            outcomes.append((verdict, ctx.staged))
            return verdict

        config = eonsim.SimulatorConfig(
            network=network, routes=routes, catalog=catalog,
            profile=eonsim.TrafficProfile(arrival_rate=1500.0, departure_rate=10.0,
                                          goal_connections=10_000))
        sim = eonsim.Simulator(config, recording)
        sim.init()
        return outcomes, sim.run().blocked

    @pytest.mark.parametrize("catalog_name, blocked", [("full", 503), ("bpsk", 1361)])
    def test_placing_matches_staging_link_by_link(self, nsfnet, nsfnet_routes,
                                                  table_catalog, bpsk_catalog,
                                                  catalog_name, blocked):
        # 503 and 1361 are the bundled First Fit's counts at these seeds.
        catalog = table_catalog if catalog_name == "full" else bpsk_catalog
        placed = self.per_request(self.placing_first_fit, nsfnet, nsfnet_routes,
                                  catalog)
        staged = self.per_request(self.public_first_fit, nsfnet, nsfnet_routes,
                                  catalog)
        assert placed == staged
        assert placed[1] == blocked


class TestExactFit:
    def fragmented_ctx(self, occupied, need):
        net = eonsim.Network.build("frag", 2, [(0, 1, 100.0, 16)])
        routes = eonsim.RouteSet()
        routes.add_node_path(net, [0, 1])
        catalog = eonsim.BitRateCatalog([eonsim.BitRateEntry(
            40.0, "40", (eonsim.ModulationOption("BPSK", need, 1e9),))])
        for start, stop in occupied:
            net.links[0].occupy_slots(start, stop)
        return make_ctx(net, routes, 0, 1, catalog[0])

    def test_prefers_exact_run_over_lower_start(self):
        # maximal free runs [0, 5) and [10, 12)
        ctx = self.fragmented_ctx([(5, 10), (12, 16)], need=2)
        assert exact_fit(ctx) is ALLOCATED
        assert ctx.staged == ((0, 10, 12),)

    def test_falls_back_to_first_fit(self):
        # only maximal run is [0, 5); no run of exactly 2
        ctx = self.fragmented_ctx([(5, 16)], need=2)
        assert exact_fit(ctx) is ALLOCATED
        assert ctx.staged == ((0, 0, 2),)

    def test_blocks_when_nothing_fits(self):
        ctx = self.fragmented_ctx([(1, 16)], need=2)
        assert exact_fit(ctx) is NOT_ALLOCATED


class TestFirstLastFit:
    def ctx(self, entry, slot_count=320):
        net = eonsim.Network.build("flf", 2, [(0, 1, 100.0, slot_count)])
        routes = eonsim.RouteSet()
        routes.add_node_path(net, [0, 1])
        return make_ctx(net, routes, 0, 1, entry)

    def test_below_threshold_goes_low(self, bpsk_catalog):
        entry = next(e for e in bpsk_catalog if e.label == "40")
        ctx = self.ctx(entry)
        assert first_last_fit(ctx) is ALLOCATED
        assert ctx.staged == ((0, 0, 4),)

    def test_above_threshold_goes_high(self, bpsk_catalog):
        entry = next(e for e in bpsk_catalog if e.label == "400")
        ctx = self.ctx(entry)
        assert first_last_fit(ctx) is ALLOCATED
        assert ctx.staged == ((0, 288, 320),)

    def test_threshold_boundary_is_high(self, bpsk_catalog):
        entry = next(e for e in bpsk_catalog if e.label == "100")
        ctx = self.ctx(entry)
        assert first_last_fit(ctx) is ALLOCATED
        assert ctx.staged == ((0, 312, 320),)

    def test_custom_threshold(self, bpsk_catalog):
        entry = next(e for e in bpsk_catalog if e.label == "40")
        ctx = self.ctx(entry)
        assert first_last_fit(ctx, threshold_gbps=40.0) is ALLOCATED
        assert ctx.staged == ((0, 316, 320),)

    def test_matches_first_fit_below_threshold(self, nsfnet, nsfnet_routes, bpsk_catalog):
        rng = random.Random(11)
        entry = next(e for e in bpsk_catalog if e.label == "40")
        for _ in range(50):
            for link in nsfnet.links:
                if rng.random() < 0.3:
                    start = rng.randrange(0, 300)
                    if link.is_range_free(start, start + 8):
                        link.occupy_slots(start, start + 8)
            src, dst = rng.choice(list(nsfnet_routes.pairs()))
            ff = make_ctx(nsfnet, nsfnet_routes, src, dst, entry)
            flf = make_ctx(nsfnet, nsfnet_routes, src, dst, entry)
            assert first_fit(ff) is first_last_fit(flf)
            assert ff.staged == flf.staged


class TestRegistry:
    def test_names(self):
        assert set(eonsim.ALGORITHMS) == {"FF", "EF", "FLF"}
        assert eonsim.ALGORITHMS["FF"] is first_fit
        assert eonsim.ALGORITHMS["EF"] is exact_fit
        assert eonsim.ALGORITHMS["FLF"] is first_last_fit
