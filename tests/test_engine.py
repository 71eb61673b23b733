import dataclasses
import gc
import weakref

import pytest

import eonsim
from eonsim import (
    ALLOCATED,
    NOT_ALLOCATED,
    Event,
    EventKind,
    Simulator,
    SimulatorConfig,
    TrafficProfile,
    first_fit,
)
from eonsim.errors import (
    AllocatorFaultError,
    AlreadyInitializedError,
    AlreadyOccupiedError,
    AuditViolationError,
    CommitConflictError,
    InvalidConfigError,
    NotInitializedError,
    NotOccupiedError,
    RunAbortedError,
)

from conftest import mask_of


def always_blocked(ctx):
    return NOT_ALLOCATED


def take_first_slot(ctx):
    for link_id in ctx.route_link_ids(0):
        ctx.alloc_slots(link_id, 0, 1)
    return ALLOCATED


@pytest.fixture
def pair_config(pair_net, pair_routes, one_slot_catalog):
    def build(goal=1, lam=3.0, mu=10.0, **kwargs):
        return SimulatorConfig(
            network=pair_net, routes=pair_routes, catalog=one_slot_catalog,
            profile=TrafficProfile(arrival_rate=lam, departure_rate=mu,
                                   goal_connections=goal),
            **kwargs)
    return build


class TestInit:
    def test_clock_zero_and_single_pending_arrival(self, pair_config):
        sim = Simulator(pair_config(), first_fit)
        sim.init()
        assert sim.clock == 0.0
        assert sim.pending_events == 1

    def test_first_arrival_is_queued_as_a_plain_tuple(self, pair_config):
        sim = Simulator(pair_config(), first_fit)
        sim.init()
        assert sim._departures == []
        assert type(sim._arrival) is tuple
        time, event_id = sim._arrival
        assert time > 0.0
        assert event_id == 0

    def test_double_init_rejected(self, pair_config):
        sim = Simulator(pair_config(), first_fit)
        sim.init()
        with pytest.raises(AlreadyInitializedError):
            sim.init()

    def test_missing_allocator(self, pair_config):
        with pytest.raises(TypeError):
            Simulator(pair_config())
        for allocator in (None, "FF"):
            with pytest.raises(ValueError, match=r"eonsim\.ALGORITHMS"):
                Simulator(pair_config(), allocator)

    def test_config_is_frozen(self, pair_config):
        config = pair_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.strict_audit = False

    def test_empty_routes_rejected(self, pair_net, one_slot_catalog):
        config = SimulatorConfig(network=pair_net, routes=eonsim.RouteSet(),
                                 catalog=one_slot_catalog)
        with pytest.raises(InvalidConfigError):
            Simulator(config, first_fit).init()

    def test_route_set_naming_a_missing_link_rejected(self, nsfnet_routes,
                                                      table_catalog):
        # The NSFNet routes use links up to 41; a 14-node ring has 28.  Its
        # link 0 -> 1 is link 0, as on NSFNet, but 100 km long, not 1050.
        ring = eonsim.Network.build("ring", 14, [
            (a, b, 100.0, 320) for i in range(14)
            for a, b in ((i, (i + 1) % 14), ((i + 1) % 14, i))])
        sim = Simulator(SimulatorConfig(network=ring, routes=nsfnet_routes,
                                        catalog=table_catalog), first_fit)
        with pytest.raises(InvalidConfigError, match=r"^network 'ring', route 0 of "
                           r"pair \(0, 1\): 1050\.0 km when built, 100\.0 km here$"):
            sim.init()
        with pytest.raises(NotInitializedError):
            sim.run()

    def test_truncated_route_set_is_checked_by_the_links_it_keeps(
            self, one_slot_catalog):
        triangle = eonsim.Network.build("triangle", 3, [
            (0, 1, 1.0, 8), (1, 0, 1.0, 8), (0, 2, 1.0, 8),
            (2, 0, 1.0, 8), (1, 2, 1.0, 8), (2, 1, 1.0, 8)])
        routes = eonsim.RouteSet()
        for path in ([0, 1], [1, 0], [0, 2], [0, 1, 2], [2, 0], [1, 0, 2],
                     [2, 0, 1]):
            routes.add_node_path(triangle, path)
        # Links 0-3 of the triangle, without the link 1 -> 2 that the second
        # route of (0, 2) uses.
        star = eonsim.Network.build("star", 3, [
            (0, 1, 1.0, 8), (1, 0, 1.0, 8), (0, 2, 1.0, 8), (2, 0, 1.0, 8)])

        def init(route_set):
            Simulator(SimulatorConfig(network=star, routes=route_set,
                                      catalog=one_slot_catalog), first_fit).init()

        with pytest.raises(InvalidConfigError, match=r"^network 'star', route 1 of "
                           r"pair \(0, 2\): .*no link with id 4$"):
            init(routes)
        init(routes.truncated(1))

    @staticmethod
    def nsfnet_with(name, links):
        return eonsim.Network.build(name, 14, [
            (link.src, link.dst, link.length_km, link.slot_count) for link in links])

    def test_routes_on_relabelled_links_rejected(self, nsfnet_template,
                                                 nsfnet_routes, table_catalog):
        # The same 42 link ids, but link i has the endpoints of link 41 - i:
        # route 0 of (0, 1) is link 0, which now runs 13 -> 12.
        rev = self.nsfnet_with("rev", reversed(nsfnet_template.links))
        sim = Simulator(SimulatorConfig(network=rev, routes=nsfnet_routes,
                                        catalog=table_catalog), first_fit)
        with pytest.raises(InvalidConfigError, match=(
                r"^network 'rev', route 0 of pair \(0, 1\): route for \(0, 1\) "
                r"starts at node 13, not 0$")):
            sim.init()
        with pytest.raises(NotInitializedError):
            sim.run()

    def test_routes_on_a_longer_link_rejected(self, nsfnet_template,
                                              nsfnet_routes, table_catalog):
        # Link 41 (13 -> 12) 1 km longer: the first route over it is route 2
        # of (0, 12), whose reach filter would read the stale length.
        links = list(nsfnet_template.links)
        last = links[-1]
        links[-1] = eonsim.Link(last.id, last.src, last.dst, last.length_km + 1,
                                last.slot_count)
        longer = self.nsfnet_with("longer", links)
        with pytest.raises(InvalidConfigError, match=(
                r"^network 'longer', route 2 of pair \(0, 12\): 4350\.0 km when "
                r"built, 4351\.0 km here$")):
            Simulator(SimulatorConfig(network=longer, routes=nsfnet_routes,
                                      catalog=table_catalog), first_fit).init()

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError, match="^a bitrate catalog needs at least "
                                             "one entry$"):
            eonsim.BitRateCatalog([])

    def test_missing_routes_rejected(self, chain_net, one_slot_catalog):
        routes = eonsim.RouteSet()
        routes.add_node_path(chain_net, [0, 1])
        config = SimulatorConfig(
            network=chain_net, routes=routes, catalog=one_slot_catalog,
            profile=TrafficProfile(goal_connections=50))
        sim = Simulator(config, first_fit)
        with pytest.raises(InvalidConfigError,
                           match=r"^no candidate routes for pair \(0, 2\)$"):
            sim.init()
        with pytest.raises(NotInitializedError):
            sim.run()

    @pytest.mark.parametrize("seeds", [eonsim.Seeds(), eonsim.Seeds(1, 2, 3, 4, 5),
                                       eonsim.Seeds(7, 70, 700, 7000, 70000)])
    def test_a_pair_without_routes_fails_before_the_first_request(
            self, nsfnet, nsfnet_routes, table_catalog, seeds):
        routes = eonsim.RouteSet()
        for src, dst in nsfnet_routes.pairs():
            if (src, dst) != (0, 12):
                for route in nsfnet_routes.routes_for(src, dst):
                    routes.add_route(nsfnet, src, dst, route.link_ids)
        sim = Simulator(SimulatorConfig(network=nsfnet, routes=routes,
                                        catalog=table_catalog, seeds=seeds),
                        first_fit)
        with pytest.raises(InvalidConfigError,
                           match=r"^no candidate routes for pair \(0, 12\)$"):
            sim.init()

    def test_degenerate_network_rejected(self, one_slot_catalog):
        net = eonsim.Network("lonely", [0, 1], [])
        config = SimulatorConfig(network=net, routes=eonsim.RouteSet(),
                                 catalog=one_slot_catalog)
        with pytest.raises(InvalidConfigError):
            Simulator(config, first_fit).init()


class TestRunBasics:
    def test_run_before_init(self, pair_config):
        with pytest.raises(NotInitializedError):
            Simulator(pair_config(), first_fit).run()

    def test_single_blocked_request(self, pair_config):
        sim = Simulator(pair_config(goal=1), always_blocked)
        sim.init()
        report = sim.run()
        assert (report.processed, report.blocked) == (1, 1)
        assert report.blocking_probability == 1.0

    def test_single_accepted_request_drains(self, pair_net, pair_config):
        sim = Simulator(pair_config(goal=1), take_first_slot)
        sim.init()
        report = sim.run()
        assert (report.processed, report.accepted) == (1, 1)
        assert sim.config.network.all_grids_free()

    def test_rejection_discards_staged(self, pair_net, pair_config):
        def stage_then_reject(ctx):
            ctx.alloc_slots(ctx.route_link_ids(0)[0], 0, 4)
            return NOT_ALLOCATED

        sim = Simulator(pair_config(goal=5), stage_then_reject)
        sim.init()
        report = sim.run()
        assert report.blocked == 5
        assert sim.config.network.all_grids_free()

    @pytest.mark.parametrize("first_verdict", [ALLOCATED, NOT_ALLOCATED])
    def test_a_context_from_an_earlier_request_cannot_commit(self, pair_config,
                                                             first_verdict):
        kept = []
        grids = []

        def commit_a_kept_context(ctx):
            link_id = ctx.route_link_ids(0)[0]
            if kept:
                grids.append([link.occupancy for link in sim.config.network.links])
                kept[0].alloc_slots(link_id, 4, 8)
                kept[0].commit_staged()
            kept.append(ctx)
            ctx.alloc_slots(link_id, 0, 1)
            return first_verdict

        sim = Simulator(pair_config(goal=5), commit_a_kept_context)
        sim.init()
        with pytest.raises(AllocatorFaultError,
                           match=r"^commit_staged\(\) on a context the engine "
                                 r"built") as excinfo:
            sim.run()
        assert type(excinfo.value) is AllocatorFaultError
        assert [link.occupancy for link in sim.config.network.links] == grids[0]
        with pytest.raises(AllocatorFaultError):  # after the run too
            kept[0].commit_staged()
        assert [link.occupancy for link in sim.config.network.links] == grids[0]

    def test_a_context_whose_commit_raised_cannot_commit(self, pair_net,
                                                         pair_config):
        for link in pair_net.links:
            link.occupy_slots(0, 1)  # background: slot 0 is taken everywhere
        kept = []

        def stage_the_taken_slot(ctx):
            kept.append(ctx)
            ctx.alloc_slots(ctx.route_link_ids(0)[0], 0, 1)
            return ALLOCATED

        sim = Simulator(pair_config(goal=1), stage_the_taken_slot)
        sim.init()
        with pytest.raises(CommitConflictError):
            sim.run()
        grids = [link.occupancy for link in sim.config.network.links]
        assert grids == [0b1, 0b1]
        kept[0].discard_staged()
        kept[0].alloc_slots(0, 3, 5)
        with pytest.raises(AllocatorFaultError,
                           match=r"^commit_staged\(\) on a context the engine "
                                 r"built"):
            kept[0].commit_staged()
        assert [link.occupancy for link in sim.config.network.links] == grids

    def test_second_run_returns_same_report(self, pair_config):
        sim = Simulator(pair_config(goal=3), always_blocked)
        sim.init()
        assert sim.run() is sim.run()

    def test_run_after_an_aborted_run_raises(self, pair_config):
        calls = []

        def fails_on_fifth_call(ctx):
            calls.append(None)
            if len(calls) == 5:
                raise RuntimeError("boom")
            return first_fit(ctx)

        sim = Simulator(pair_config(goal=10), fails_on_fifth_call)
        sim.init()
        with pytest.raises(AllocatorFaultError):
            sim.run()
        with pytest.raises(RunAbortedError, match=r"earlier run\(\) .* aborted"):
            sim.run()
        assert issubclass(RunAbortedError, eonsim.errors.EonSimError)
        assert len(calls) == 5
        assert sim.report.processed == 4

    def test_accepted_arrival_occupies_and_schedules_departure(
            self, chain_net, chain_routes, one_slot_catalog):
        after_arrival = []

        def listener(sim, event):
            if event.kind is EventKind.ARRIVAL:
                occupied = {link.id: link.occupancy
                            for link in sim.config.network.links
                            if link.occupied_count}
                after_arrival.append((sim.pending_events, occupied))

        def stage_four(ctx):
            for link_id in ctx.route_link_ids(0):
                ctx.alloc_slots(link_id, 0, 4)
            return ALLOCATED

        config = SimulatorConfig(
            network=chain_net, routes=chain_routes, catalog=one_slot_catalog,
            profile=TrafficProfile(goal_connections=1))
        sim = Simulator(config, stage_four, event_listener=listener)
        sim.init()
        sim.run()
        pending, occupied = after_arrival[0]
        assert pending == 1  # exactly the departure of the new connection
        assert occupied  # route links carry the staged range
        assert all(grid == mask_of([True] * 4) for grid in occupied.values())
        assert sim.config.network.all_grids_free()

    def test_conservation_and_drain_on_real_run(self, nsfnet, nsfnet_routes,
                                                table_catalog):
        config = SimulatorConfig(
            network=nsfnet, routes=nsfnet_routes, catalog=table_catalog,
            profile=TrafficProfile(arrival_rate=90, departure_rate=10,
                                   goal_connections=4_000))
        sim = Simulator(config, first_fit, algorithm_name="FF")
        sim.init()
        report = sim.run()
        assert report.accepted + report.blocked == report.processed == 4_000
        assert sim.config.network.all_grids_free()
        assert not sim.live_connections


class TestAllocatorFaults:
    def test_out_of_bounds_staging_aborts(self, pair_config):
        def beyond_grid(ctx):
            ctx.alloc_slots(0, 6, 12)
            return ALLOCATED

        sim = Simulator(pair_config(goal=1), beyond_grid)
        sim.init()
        with pytest.raises(AllocatorFaultError):
            sim.run()

    def test_bad_verdict_aborts(self, pair_config):
        sim = Simulator(pair_config(goal=1), lambda ctx: "yes")
        sim.init()
        with pytest.raises(AllocatorFaultError):
            sim.run()

    def test_allocator_exception_is_wrapped(self, pair_config):
        def broken(ctx):
            raise ZeroDivisionError("boom")

        sim = Simulator(pair_config(goal=1), broken)
        sim.init()
        with pytest.raises(AllocatorFaultError) as excinfo:
            sim.run()
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)

    def test_allocator_fault_is_reraised_unwrapped(self, pair_config):
        fault = AllocatorFaultError("the allocator's own fault")

        def faulty(ctx):
            raise fault

        sim = Simulator(pair_config(goal=1), faulty)
        sim.init()
        with pytest.raises(AllocatorFaultError,
                           match="^the allocator's own fault$") as excinfo:
            sim.run()
        assert excinfo.value is fault

    def test_allocator_cannot_switch_the_audit_off(self, pair_net, pair_config):
        # Two non-adjacent slots on one link fail the contiguity audit; an
        # allocator must not be able to skip the audit for its own commit.
        def split_without_audit(ctx):
            ctx.strict_audit = False
            ctx.alloc_slots(0, 0, 1)
            ctx.alloc_slots(0, 2, 3)
            return ALLOCATED

        sim = Simulator(pair_config(goal=200), split_without_audit)
        sim.init()
        with pytest.raises(AllocatorFaultError, match="strict_audit"):
            sim.run()
        assert sim.report.accepted == 0
        assert sim.config.network.all_grids_free()

    def test_accepting_with_nothing_staged_aborts(self, pair_config):
        sim = Simulator(pair_config(goal=10), lambda ctx: ALLOCATED)
        sim.init()
        with pytest.raises(AuditViolationError, match="nothing staged"):
            sim.run()
        assert sim.report.accepted == 0

    @pytest.mark.parametrize("start, stop",
                             [(6.0, 8.0), (6, 8.0), (6.0, 8), (None, 8)])
    def test_non_integer_bounds_abort_with_grids_unchanged(self, pair_config,
                                                           start, stop):
        # The fifth request stages an int range on one link, then the same
        # slots with a non-int bound on the other, e.g. from a midpoint
        # computed with "/" instead of "//"; that staging call raises.
        seen = []

        def midpoint_fit(ctx):
            seen.append([link.occupancy for link in sim.config.network.links])
            if len(seen) < 5:
                return first_fit(ctx)
            link_id = ctx.route_link_ids(0)[0]
            ctx.alloc_slots(1 - link_id, 6, 8)
            seen.append(link_id)
            ctx.alloc_slots(link_id, start, stop)
            return ALLOCATED

        sim = Simulator(pair_config(goal=10), midpoint_fit)
        sim.init()
        with pytest.raises(AllocatorFaultError) as excinfo:
            sim.run()
        assert str(excinfo.value) == (
            f"staged [{start!r}, {stop!r}) on link {seen[-1]}: "
            "slot bounds must be int")
        assert excinfo.value.__cause__ is None
        assert sim.report.accepted == 4
        assert [link.occupancy for link in sim.config.network.links] == seen[-2]

    def test_commit_conflict_aborts(self, pair_net, pair_routes, one_slot_catalog):
        # every request claims slot 0 of link 0 and never departs in time
        def greedy(ctx):
            ctx.alloc_slots(0, 0, 1)
            return ALLOCATED

        config = SimulatorConfig(
            network=pair_net, routes=pair_routes, catalog=one_slot_catalog,
            profile=TrafficProfile(arrival_rate=100.0, departure_rate=1e-6,
                                   goal_connections=10))
        sim = Simulator(config, greedy)
        sim.init()
        with pytest.raises(CommitConflictError):
            sim.run()


class TestOwnNetwork:
    """A simulator runs on its own copy of the network, never on the caller's."""

    @staticmethod
    def masks(network):
        return [link.occupancy for link in network.links]

    @staticmethod
    def run_ff(config, allocator=first_fit):
        sim = Simulator(config, allocator, algorithm_name="FF")
        sim.init()
        return sim, sim.run()

    def test_copy_keeps_topology_grids_routes_and_catalog(
            self, chain_net, chain_routes, one_slot_catalog):
        chain_net.links[2].occupy_slots(1, 3)
        config = SimulatorConfig(network=chain_net, routes=chain_routes,
                                 catalog=one_slot_catalog)
        own = Simulator(config, first_fit).config
        assert own.network is not chain_net
        assert all(mine is not given for mine, given
                   in zip(own.network.links, chain_net.links))
        assert [repr(link) for link in own.network.links] == [
            repr(link) for link in chain_net.links]
        assert own.network.adjacency == chain_net.adjacency
        assert self.masks(own.network) == self.masks(chain_net)
        assert dataclasses.replace(own, network=chain_net) == config
        assert own.routes is chain_routes and own.catalog is one_slot_catalog

    def test_run_leaves_the_callers_network_as_it_was(
            self, nsfnet, nsfnet_routes, bpsk_catalog):
        nsfnet.links[5].occupy_slots(10, 90)  # background occupancy
        before = self.masks(nsfnet)
        config = SimulatorConfig(
            network=nsfnet, routes=nsfnet_routes, catalog=bpsk_catalog,
            profile=TrafficProfile(arrival_rate=1500, departure_rate=10,
                                   goal_connections=2_000))
        seen = []

        def watch(sim, event):
            if event.kind is EventKind.ARRIVAL:
                seen.append(sum(link.occupied_count
                                for link in sim.config.network.links))

        sim = Simulator(config, first_fit, event_listener=watch)
        sim.init()
        sim.run()
        assert max(seen) > 80  # the run's own grids carried its connections
        assert self.masks(nsfnet) == before
        assert self.masks(sim.config.network) == before  # drained to the start

    def test_config_is_reusable_after_an_aborted_run(
            self, nsfnet, nsfnet_routes, bpsk_catalog):
        config = SimulatorConfig(
            network=nsfnet, routes=nsfnet_routes, catalog=bpsk_catalog,
            profile=TrafficProfile(arrival_rate=1500, departure_rate=10,
                                   goal_connections=2_000))
        calls = []

        def fails_on_1000th_call(ctx):
            calls.append(None)
            if len(calls) == 1_000:
                raise RuntimeError("boom")
            return first_fit(ctx)

        before = self.masks(nsfnet)
        with pytest.raises(AllocatorFaultError):
            self.run_ff(config, fails_on_1000th_call)
        assert len(calls) == 1_000
        assert self.masks(nsfnet) == before
        sim, report = self.run_ff(config)
        assert (report.processed, report.blocked) == (2_000, 258)
        assert sim.config.network.all_grids_free()
        assert not sim.live_connections
        _, fresh = self.run_ff(dataclasses.replace(
            config, network=eonsim.data.load_nsfnet()))
        assert (fresh.accepted, fresh.blocked) == (report.accepted, report.blocked)


class TestEventQueue:
    @staticmethod
    def events_of(config, allocator=first_fit):
        events = []
        sim = Simulator(config, allocator,
                        event_listener=lambda sim, event: events.append(event))
        sim.init()
        report = sim.run()
        return events, report

    def test_events_pop_in_time_order(self, pair_config):
        events, report = self.events_of(pair_config(goal=300, lam=30.0))
        times = [event.time for event in events]
        assert times == sorted(times)
        kinds = [event.kind for event in events]
        assert kinds.count(EventKind.ARRIVAL) == 300
        assert kinds.count(EventKind.DEPARTURE) == report.accepted > 0

    def test_departure_pops_before_arrival_on_tie(self, pair_config, monkeypatch):
        # Arrivals at t = 1, 2, 3 and holding times of 1.0: each departure
        # coincides with the next arrival.
        monkeypatch.setattr(eonsim.engine, "next_exponential",
                            lambda stream, rate: 1.0)
        events, _ = self.events_of(pair_config(goal=3))
        arrival, departure = EventKind.ARRIVAL, EventKind.DEPARTURE
        assert [(event.time, event.kind) for event in events] == [
            (1.0, arrival), (2.0, departure), (2.0, arrival),
            (3.0, departure), (3.0, arrival), (4.0, departure)]

    def test_full_tie_breaks_on_event_id(self, pair_config, monkeypatch):
        # All eight arrivals at t = 0 and holding times of 1.0: the eight
        # departures share t = 1.0 and must leave in acceptance order.
        monkeypatch.setattr(eonsim.engine, "next_exponential",
                            lambda stream, rate: 0.0 if rate == 3.0 else 1.0)
        events, report = self.events_of(pair_config(goal=8, lam=3.0, mu=10.0))
        assert report.accepted == 8
        departures = [event for event in events
                      if event.kind is EventKind.DEPARTURE]
        assert {event.time for event in departures} == {1.0}
        assert [event.connection_id for event in departures] == list(range(8))
        event_ids = [event.event_id for event in departures]
        assert event_ids == sorted(event_ids)

    def test_tie_rule_frees_spectrum_before_competing_arrival(
            self, pair_net, pair_routes, one_slot_catalog, monkeypatch):
        # Arrivals at t = 1, 2, 3, ... and holding times of exactly 1.0 on a
        # 1-slot-per-request network: each departure coincides with the next
        # arrival, which only succeeds if departures are processed first.
        monkeypatch.setattr(eonsim.engine, "next_exponential",
                            lambda stream, rate: 1.0)
        config = SimulatorConfig(
            network=pair_net, routes=pair_routes, catalog=one_slot_catalog,
            profile=TrafficProfile(arrival_rate=1.0, departure_rate=1.0,
                                   goal_connections=50))

        def claim_whole_link(ctx):
            ctx.alloc_slots(ctx.route_link_ids(0)[0], 0, 8)
            return ALLOCATED

        sim = Simulator(config, claim_whole_link)
        sim.init()
        report = sim.run()
        assert report.blocked == 0


class TestInvariantsUnderListener:
    def test_clock_monotone_and_no_double_booking(self, nsfnet, nsfnet_routes,
                                                  bpsk_catalog):
        times = []

        def audit(sim, event):
            times.append(event.time)
            expected = {link.id: [False] * link.slot_count
                        for link in sim.config.network.links}
            for record in sim.live_connections.values():
                for link_id, start, stop in record.holdings:
                    assert not any(expected[link_id][start:stop]), "double booking"
                    expected[link_id][start:stop] = [True] * (stop - start)
            for link in sim.config.network.links:
                assert link.occupancy == mask_of(expected[link.id])

        config = SimulatorConfig(
            network=nsfnet, routes=nsfnet_routes, catalog=bpsk_catalog,
            profile=TrafficProfile(arrival_rate=180, departure_rate=10,
                                   goal_connections=400))
        sim = Simulator(config, first_fit, event_listener=audit)
        sim.init()
        sim.run()
        assert times == sorted(times)


    @pytest.mark.parametrize("allocator", [first_fit, take_first_slot],
                             ids=["place", "alloc_slots"])
    def test_a_range_freed_behind_the_engine_fails_its_departure(
            self, pair_config, allocator):
        freed = []

        def free_behind_the_engine(sim, event):
            for record in sim.live_connections.values():
                for link_id, start, stop in record.holdings:
                    sim.config.network.links[link_id].release_slots(start, stop)
                    freed.append((link_id, start, stop))

        sim = Simulator(pair_config(goal=1), allocator,
                        event_listener=free_behind_the_engine)
        sim.init()
        with pytest.raises(NotOccupiedError) as excinfo:
            sim.run()
        assert freed == [(0, 0, 1)]
        assert str(excinfo.value) == ("link 0: range [0, 1) is not entirely "
                                      "occupied (double release?)")
        assert sim.config.network.all_grids_free()


class TestDeterminism:
    def run_once(self, network, routes, catalog, seeds=eonsim.Seeds()):
        config = SimulatorConfig(
            network=network, routes=routes, catalog=catalog,
            profile=TrafficProfile(arrival_rate=120, departure_rate=10,
                                   goal_connections=3_000),
            seeds=seeds)
        sim = Simulator(config, first_fit, algorithm_name="FF")
        sim.init()
        return sim.run()

    def test_identical_config_gives_identical_statistics(self, nsfnet_template,
                                                         nsfnet_routes, bpsk_catalog):
        first = self.run_once(nsfnet_template, nsfnet_routes, bpsk_catalog)
        second = self.run_once(nsfnet_template, nsfnet_routes, bpsk_catalog)
        assert (first.processed, first.accepted, first.blocked,
                first.per_bitrate) == (second.processed, second.accepted,
                                       second.blocked, second.per_bitrate)

    def test_seed_change_changes_only_statistics(self, nsfnet_template,
                                                 nsfnet_routes, bpsk_catalog):
        report = self.run_once(nsfnet_template, nsfnet_routes, bpsk_catalog,
                               seeds=eonsim.Seeds(arrival=777))
        assert report.accepted + report.blocked == report.processed == 3_000


class TestProgressOutput:
    def test_header_progress_and_summary(self, pair_config, capsys):
        sim = Simulator(pair_config(goal=10), always_blocked,
                        algorithm_name="FF", progress_every=10)
        sim.init()
        sim.run()
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("#") and "algorithm=FF" in lines[0]
        assert "lambda=3" in lines[0] and "mu=10" in lines[0]
        assert lines[1] == "progress requests=10 blocked=10 blocking=1.000000e+00"
        assert lines[2].startswith("done requests=10 accepted=0 blocked=10")

    @pytest.mark.parametrize("progress_every", [-5, True, 2.5, "10"],
                             ids=["negative", "bool", "float", "str"])
    def test_progress_every_is_none_or_a_count(self, pair_config, progress_every):
        # -5 used to print every 5th request, and True or 2.5 were taken as is.
        with pytest.raises(ValueError, match=r"progress_every must be None or an "
                                             r"int of at least 0, got "):
            Simulator(pair_config(), always_blocked, progress_every=progress_every)

    @pytest.mark.parametrize("listener", [42, "print"], ids=["int", "str"])
    def test_event_listener_is_none_or_a_callable(self, pair_config, listener):
        # 42 used to pass init() and fail run() after its first request.
        with pytest.raises(ValueError, match=r"event_listener must be None or a "
                                             r"callable, got "):
            Simulator(pair_config(), always_blocked, event_listener=listener)

    def test_interim_probability_matches_counts(self, pair_config, capsys):
        calls = []

        def every_third_blocked(ctx):
            calls.append(None)
            if len(calls) % 3 == 1:
                return NOT_ALLOCATED
            return ALLOCATED

        # Accepts without staging, which only a non-strict run allows.
        sim = Simulator(pair_config(goal=30, strict_audit=False),
                        every_third_blocked, progress_every=1)
        sim.init()
        sim.run()
        progress = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("progress")]
        assert len(progress) == 30
        for k, line in enumerate(progress, start=1):
            fields = dict(part.split("=") for part in line.split()[1:])
            blocked_k = (k + 2) // 3
            assert int(fields["requests"]) == k
            assert int(fields["blocked"]) == blocked_k
            assert float(fields["blocking"]) == pytest.approx(blocked_k / k)


class TestLifecycleViews:
    def test_listener_sees_events_and_live_connections_see_records(
            self, nsfnet, nsfnet_routes, table_catalog):
        committed = []
        seen = set()
        live_seen = 0

        def recording_first_fit(ctx):
            verdict = first_fit(ctx)
            if verdict is ALLOCATED:
                committed.append(ctx.staged)  # index = connection id
            return verdict

        def listener(sim, event):
            nonlocal live_seen
            assert isinstance(event, Event)
            assert isinstance(event.kind, EventKind)
            seen.add((event.kind, event.event_id))
            live = sim.live_connections
            assert list(live) == sorted(live)
            for connection_id, record in live.items():
                assert isinstance(record, eonsim.ConnectionRecord)
                assert record.connection_id == connection_id
                assert record.holdings == committed[connection_id]
                assert record.departure_time >= sim.clock
                live_seen += 1

        config = SimulatorConfig(
            network=nsfnet, routes=nsfnet_routes, catalog=table_catalog,
            profile=TrafficProfile(arrival_rate=180, departure_rate=10,
                                   goal_connections=300))
        sim = Simulator(config, recording_first_fit, event_listener=listener)
        sim.init()
        sim.run()
        assert {kind for kind, _ in seen} == set(EventKind)
        assert live_seen > 0
        assert not sim.live_connections


class TestCommitWithoutRollback:
    def test_conflict_on_last_range_touches_no_grid(self, chain_net,
                                                    chain_routes,
                                                    one_slot_catalog):
        chain_net.links[3].occupy_slots(3, 4)  # a live connection
        before = [link.occupancy for link in chain_net.links]
        ctx = eonsim.AllocationContext(
            chain_net, 0, 2, chain_routes.routes_for(0, 2),
            one_slot_catalog[0], strict_audit=False)
        ctx.alloc_slots(0, 0, 2)
        ctx.alloc_slots(2, 2, 5)
        ctx.alloc_slots(3, 0, 4)
        with pytest.raises(CommitConflictError) as excinfo:
            ctx.commit_staged()
        assert str(excinfo.value) == (
            "staged range is no longer free at commit time: "
            "link 3: range [0, 4) is not entirely free")
        assert isinstance(excinfo.value.__cause__, AlreadyOccupiedError)
        for link, snapshot in zip(chain_net.links, before):
            assert link.occupancy == snapshot
        assert ctx.staged == ((0, 0, 2), (2, 2, 5), (3, 0, 4))


class TestRunPlans:
    """Request plans are built on first use in a run and follow the inputs."""

    @staticmethod
    def count_plans(monkeypatch):
        calls = []
        build = eonsim.engine.request_plan

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(eonsim.engine, "request_plan", counting)
        return calls

    @staticmethod
    def run(network, routes, catalog, allocator=first_fit, goal=2_000, lam=180.0):
        placements = []

        def recording(ctx):
            verdict = allocator(ctx)
            placements.append((ctx.src, ctx.dst, verdict, ctx.staged))
            return verdict

        sim = Simulator(SimulatorConfig(
            network=network, routes=routes, catalog=catalog,
            profile=TrafficProfile(arrival_rate=lam, departure_rate=10.0,
                                   goal_connections=goal)),
            recording, algorithm_name="FF")
        sim.init()
        report = sim.run()
        return (report.processed, report.accepted, report.blocked,
                report.per_bitrate), placements

    @staticmethod
    def triangle(slot_count=8):
        return eonsim.Network.build("triangle", 3, [
            (a, b, 100.0, slot_count)
            for a, b in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))])

    @staticmethod
    def direct_routes(network):
        routes = eonsim.RouteSet()
        for a, b in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)):
            routes.add_node_path(network, [a, b])
        return routes

    def test_plans_are_built_in_run_once_per_request_kind(self, monkeypatch):
        template = eonsim.data.load_nsfnet()
        routes = eonsim.data.load_nsfnet_routes(template)
        catalog = eonsim.data.load_bit_rates()
        calls = self.count_plans(monkeypatch)
        Simulator(SimulatorConfig(
            network=template, routes=routes, catalog=catalog,
            profile=TrafficProfile(arrival_rate=180.0, departure_rate=10.0,
                                   goal_connections=2_000)),
            first_fit, algorithm_name="FF").init()
        assert calls == []  # init() builds none

        first = self.run(template, routes, catalog)
        kinds = {(tuple(route.link_ids for route in plan_routes), entry.label)
                 for _, plan_routes, entry in calls}
        assert 0 < len(calls) == len(kinds)
        # A second run on the same route set and catalog gives the same report.
        assert self.run(template, routes, catalog) == first

    def test_added_route_is_used_by_the_next_run(self):
        network = self.triangle()
        routes = self.direct_routes(network)
        catalog = eonsim.BitRateCatalog([eonsim.BitRateEntry(
            10.0, "10", (eonsim.ModulationOption("BPSK", 1, 1e9),))])

        def pair_01(placements):
            return [(verdict, staged) for src, dst, verdict, staged in placements
                    if (src, dst) == (0, 1)]

        network.links[0].occupy_slots(0, 8)  # the direct link 0 -> 1 is full
        _, before = self.run(network, routes, catalog, goal=300, lam=3.0)
        assert before and all(verdict is NOT_ALLOCATED
                              for verdict, _ in pair_01(before))

        detour = routes.add_node_path(network, [0, 2, 1])
        _, after = self.run(network, routes, catalog, goal=300, lam=3.0)
        assert pair_01(after) and all(
            verdict is ALLOCATED
            and {link_id for link_id, _, _ in staged} == set(detour.link_ids)
            for verdict, staged in pair_01(after))

    def test_new_catalog_entries_are_used_by_the_next_run(self):
        network = self.triangle(16)
        routes = self.direct_routes(network)

        def entries(slots):
            return (eonsim.BitRateEntry(
                10.0, "10", (eonsim.ModulationOption("BPSK", slots, 1e9),)),)

        def widths(catalog):
            _, placements = self.run(network, routes, catalog,
                                     goal=100, lam=3.0)
            return {stop - start for _, _, _, staged in placements
                    for _, start, stop in staged}

        assert widths(eonsim.BitRateCatalog(entries(2))) == {2}
        assert widths(eonsim.BitRateCatalog(entries(3))) == {3}

    def test_other_slot_counts_get_their_own_plans(self, monkeypatch):
        narrow = self.triangle(8)
        routes = self.direct_routes(narrow)
        routes.add_node_path(narrow, [0, 1, 2])
        catalog = eonsim.BitRateCatalog([eonsim.BitRateEntry(
            400.0, "400", (eonsim.ModulationOption("BPSK", 1, 1e9),))])
        calls = self.count_plans(monkeypatch)

        def top_starts(network):
            _, placements = self.run(network, routes, catalog,
                                     allocator=eonsim.first_last_fit,
                                     goal=100, lam=3.0)
            return {staged[0][1] for _, _, verdict, staged in placements
                    if verdict is ALLOCATED}

        assert 7 in top_starts(narrow)  # high-to-low from the top slot
        built = len(calls)
        assert built > 0
        assert 15 in top_starts(self.triangle(16))
        assert len(calls) > built

        # A network whose links differ in slot count never reaches a run.
        with pytest.raises(ValueError, match="link 4 has 16 slots but link 0 has 8"):
            eonsim.Network.build("mixed", 3, [
                (0, 1, 100.0, 8), (1, 0, 100.0, 8), (0, 2, 100.0, 8),
                (2, 0, 100.0, 8), (1, 2, 100.0, 16), (2, 1, 100.0, 8)])

    def test_plans_die_with_route_set_and_catalog(self):
        template = eonsim.data.load_nsfnet()
        routes = eonsim.data.load_nsfnet_routes(template)
        catalog = eonsim.data.load_bit_rates()
        self.run(template, routes, catalog, goal=500)
        routes_ref, catalog_ref = weakref.ref(routes), weakref.ref(catalog)
        del routes, catalog
        gc.collect()
        assert routes_ref() is None
        assert catalog_ref() is None
