import concurrent.futures
import multiprocessing
import pickle
import re
from functools import partial

import pytest

import eonsim
from eonsim import (
    ALLOCATED,
    NOT_ALLOCATED,
    SearchDirection,
    Seeds,
    SimulationReport,
    SimulatorConfig,
    TrafficProfile,
    exact_fit,
    first_fit,
    first_last_fit,
    sweep_reports,
    write_dat,
)
from eonsim.algorithms import first_free_block, intersection_grid, modulation_options
from eonsim.errors import AllocatorFaultError, EonSimError


def make_report(**kwargs):
    defaults = dict(algorithm="FF", arrival_rate=18.0, departure_rate=10.0,
                    goal_connections=10, seeds=Seeds(), strict_audit=True,
                    per_bitrate={"40": [0, 0], "100": [0, 0]})
    defaults.update(kwargs)
    return SimulationReport(**defaults)


class TestRecordOutcome:
    def test_mixed_outcomes(self):
        report = make_report()
        for _ in range(7):
            report.record_outcome(ALLOCATED, "40")
        for _ in range(3):
            report.record_outcome(NOT_ALLOCATED, "40")
        assert report.processed == 10
        assert report.blocking_probability == pytest.approx(0.3)

    def test_no_blocking(self):
        report = make_report()
        report.record_outcome(ALLOCATED, "40")
        assert report.blocking_probability == 0.0

    def test_all_blocked(self):
        report = make_report()
        for _ in range(4):
            report.record_outcome(NOT_ALLOCATED, "40")
        assert report.blocking_probability == 1.0

    def test_empty_report_has_zero_probability(self):
        assert make_report().blocking_probability == 0.0

    def test_per_bitrate_counters(self):
        report = make_report()
        report.record_outcome(ALLOCATED, "40")
        report.record_outcome(NOT_ALLOCATED, "40")
        report.record_outcome(ALLOCATED, "100")
        assert report.per_bitrate == {"40": [2, 1], "100": [1, 0]}
        lines = report.per_bitrate_lines()
        assert "bitrate=40 requests=2 blocked=1" in lines[0]

    def test_erlang_echo(self):
        assert make_report().erlang == pytest.approx(1.8)


class TestLineFormats:
    def test_header_contents(self):
        header = make_report().header_line()
        for token in ("algorithm=FF", "lambda=18", "mu=10", "goal=10",
                      "erlang=1.8", "strict_audit=on",
                      "seeds=12345,12347,12349,12351,12353"):
            assert token in header

    def test_progress_format(self):
        report = make_report()
        report.record_outcome(NOT_ALLOCATED, "40")
        assert report.progress_line() == (
            "progress requests=1 blocked=1 blocking=1.000000e+00")

    def test_summary_format(self):
        report = make_report()
        report.record_outcome(ALLOCATED, "40")
        report.wall_clock_seconds = 0.125
        assert report.summary_line() == (
            "done requests=1 accepted=1 blocked=0 blocking=0.000000e+00 "
            "wall_seconds=0.125")


class TestWriteDat:
    def test_row_format(self, tmp_path):
        path = tmp_path / "out.dat"
        write_dat([(1.8, 0.0001)], path)
        assert path.read_text() == "1.8 1.000000e-04\n"

    def test_zero_is_recorded_as_zero(self, tmp_path):
        path = tmp_path / "out.dat"
        write_dat([(1.8, 0.0)], path)
        assert path.read_text() == "1.8 0.000000e+00\n"

    def test_many_rows_ascending(self, tmp_path):
        path = tmp_path / "out.dat"
        results = [(lam / 10, lam / 2000) for lam in range(18, 181, 18)]
        assert write_dat(results, path) == path.read_text()
        lines = path.read_text().splitlines()
        assert len(lines) == 10
        erlangs = [float(line.split()[0]) for line in lines]
        assert erlangs == sorted(erlangs)

    def test_empty_results_create_no_file(self, tmp_path):
        path = tmp_path / "out.dat"
        with pytest.raises(ValueError):
            write_dat([], path)
        assert not path.exists()

    def test_io_error_propagates(self, tmp_path):
        with pytest.raises(OSError):
            write_dat([(1.8, 0.5)], tmp_path / "missing" / "out.dat")


def last_fit(ctx):
    """A user allocator: the highest free window, on the public grid calls."""
    for route in range(ctx.route_count()):
        occupied = intersection_grid(ctx, route)
        slot_count = ctx.link_in_route(route, 0).slot_count
        for option in modulation_options(ctx, route):
            block = first_free_block(occupied, slot_count, ctx.request_slots(option),
                                     SearchDirection.HIGH_TO_LOW)
            if block is not None:
                for link_id in ctx.route_link_ids(route):
                    ctx.alloc_slots(link_id, block.start, block.stop)
                return ALLOCATED
    return NOT_ALLOCATED


def raises_on_every_request(ctx):
    raise RuntimeError("no placement today")


class FailsOnCall:
    """First Fit until its ``n``-th call, which raises; a pool gets a copy."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __call__(self, ctx):
        self.calls += 1
        if self.calls == self.n:
            raise RuntimeError(f"call {self.n}")
        return first_fit(ctx)


def printing_first_fit(ctx):
    """First Fit that prints a line, set by the request alone, for pair (0, 1)."""
    if (ctx.src, ctx.dst) == (0, 1):
        print(f"request 0->1 bitrate={ctx.request_bitrate_label()}")
    return first_fit(ctx)


#: A lambda has no importable name, so it cannot be pickled to a worker.
blocks_everything = lambda ctx: NOT_ALLOCATED  # noqa: E731


def curve(reports):
    return [(report.erlang, report.blocking_probability) for report in reports]


def counts(reports):
    """Everything a report holds but its wall-clock time."""
    return [(report.algorithm, report.erlang, report.processed, report.accepted,
             report.blocked, report.per_bitrate) for report in reports]


class TestRunSweep:
    @pytest.fixture
    def base_config(self, pair_net, pair_routes, one_slot_catalog):
        return SimulatorConfig(
            network=pair_net, routes=pair_routes, catalog=one_slot_catalog,
            profile=TrafficProfile(arrival_rate=3.0, departure_rate=10.0,
                                   goal_connections=400))

    @pytest.fixture
    def nsfnet_bpsk_config(self, nsfnet, nsfnet_routes, bpsk_catalog):
        return SimulatorConfig(
            network=nsfnet, routes=nsfnet_routes, catalog=bpsk_catalog,
            profile=TrafficProfile(departure_rate=10.0, goal_connections=2000))

    def test_erlang_column_for_the_ten_load_points(self, base_config):
        lambdas = [18, 36, 54, 72, 90, 108, 126, 144, 162, 180]
        reports = sweep_reports(base_config, lambdas, first_fit)
        assert [report.erlang for report in reports] == pytest.approx(
            [1.8, 3.6, 5.4, 7.2, 9.0, 10.8, 12.6, 14.4, 16.2, 18.0])

    def test_single_load_point(self, base_config):
        reports = sweep_reports(base_config, [30.0], first_fit)
        assert len(reports) == 1
        assert reports[0].erlang == pytest.approx(3.0)

    def test_identical_invocations_match(self, base_config):
        assert curve(sweep_reports(base_config, [18, 90], first_fit)) == curve(
            sweep_reports(base_config, [18, 90], first_fit))

    def test_runs_do_not_disturb_the_base_network(self, base_config):
        sweep_reports(base_config, [60], first_fit)
        assert base_config.network.all_grids_free()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_leaves_a_pre_occupied_network_as_it_was(self, base_config,
                                                           workers):
        base_config.network.links[0].occupy_slots(2, 5)
        before = [link.occupancy for link in base_config.network.links]
        reports = sweep_reports(base_config, [18, 90], first_fit, workers=workers)
        assert all(report.accepted for report in reports)
        assert [link.occupancy for link in base_config.network.links] == before

    def test_sweep_runs_on_the_configured_grids(self, base_config):
        for link in base_config.network.links:
            link.occupy_slots(0, 8)  # background occupancy fills every link
        assert [blocking for _, blocking in curve(sweep_reports(
            base_config, [18, 90], first_fit))] == [1.0, 1.0]

    def test_parallel_workers_match_serial(self, base_config):
        serial = curve(sweep_reports(base_config, [18, 90], first_fit))
        parallel = curve(sweep_reports(base_config, [18, 90], first_fit, workers=2))
        assert serial == parallel

    def test_unknown_algorithm(self, base_config, capsys):
        # A registry name is not an allocator: the first run's Simulator
        # rejects it before any request, and the message says where the
        # names are.
        with pytest.raises(ValueError, match=r"eonsim\.ALGORITHMS"):
            sweep_reports(base_config, [18, 90], "FF", progress_every=100)
        assert capsys.readouterr().out == ""

    def test_unknown_algorithm_starts_no_pool(self, base_config, monkeypatch):
        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        with pytest.raises(ValueError, match=r"eonsim\.ALGORITHMS"):
            sweep_reports(base_config, [18, 90], "FF", workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_run_keeps_its_error_class(self, base_config, workers):
        with pytest.raises(AllocatorFaultError) as excinfo:
            sweep_reports(base_config, [18, 90], raises_on_every_request,
                          workers=workers)
        assert str(excinfo.value).startswith(
            "sweep run at lambda=18 failed: allocator 'raises_on_every_request' "
            "raised RuntimeError: no placement today")
        assert isinstance(excinfo.value.__cause__, AllocatorFaultError)

    def test_pooled_console_equals_serial_console(self, nsfnet_bpsk_config,
                                                  capsys):
        def console(workers):
            sweep_reports(nsfnet_bpsk_config, [1500, 3000, 180], exact_fit,
                          algorithm_name="EF", workers=workers,
                          progress_every=100)
            return re.sub(r"wall_seconds=\S+", "wall_seconds=",
                          capsys.readouterr().out)

        serial = console(1)
        assert serial.count("# eonsim algorithm=EF") == 3
        assert len(serial.splitlines()) == 3 * (1 + 2000 // 100 + 1)
        assert console(2) == serial

    def test_a_failed_pooled_run_prints_what_a_serial_one_does(
            self, nsfnet_bpsk_config, capsys):
        def console(workers):
            with pytest.raises(AllocatorFaultError,
                               match=r"^sweep run at lambda=18 failed: allocator "
                                     r"'flaky' raised RuntimeError: call 150$"):
                sweep_reports(nsfnet_bpsk_config, [18, 36], FailsOnCall(150),
                              algorithm_name="flaky", workers=workers,
                              progress_every=50)
            return capsys.readouterr().out

        serial = console(1)
        assert serial.startswith("# eonsim algorithm=flaky lambda=18 ")
        assert len(serial.splitlines()) == 3  # the header and two progress lines
        assert console(2) == serial

    def test_a_pooled_block_holds_the_allocators_prints(self, nsfnet_bpsk_config,
                                                        capsys):
        def console(workers):
            sweep_reports(nsfnet_bpsk_config, [180, 1500], printing_first_fit,
                          workers=workers, progress_every=500)
            return re.sub(r"wall_seconds=\S+", "wall_seconds=",
                          capsys.readouterr().out)

        serial = console(1)
        lines = serial.splitlines()
        headers = [i for i, line in enumerate(lines) if line.startswith("# eonsim")]
        assert headers[0] == 0 and len(headers) == 2
        assert any(line.startswith("request 0->1")
                   for line in lines[:headers[1]])
        assert console(2) == serial

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_progress_every_fails_before_any_run(self, base_config, capsys,
                                                     workers):
        with pytest.raises(ValueError, match="progress_every must be None or an "
                                             "int of at least 0, got -5"):
            sweep_reports(base_config, [18, 90], first_fit, workers=workers,
                          progress_every=-5)
        assert capsys.readouterr().out == ""

    def test_a_partial_is_named_after_its_function_and_arguments(
            self, base_config, capsys):
        allocator = partial(first_last_fit, threshold_gbps=40)
        reports = sweep_reports(base_config, [18], allocator, progress_every=400)
        assert reports[0].algorithm == "first_last_fit(threshold_gbps=40)"
        assert capsys.readouterr().out.startswith(
            "# eonsim algorithm=first_last_fit(threshold_gbps=40) lambda=18 ")
        sim = eonsim.Simulator(base_config, partial(first_fit, spare=(1, 2)))
        sim.init()
        assert sim.report.algorithm == "first_fit(spare=(1,2))"  # no whitespace
        assert sweep_reports(base_config, [18], allocator,
                             algorithm_name="FLF40")[0].algorithm == "FLF40"

    @pytest.mark.parametrize("allocator", [
        last_fit, partial(first_last_fit, threshold_gbps=40)],
        ids=["user-module-level", "partial"])
    def test_any_picklable_allocator_runs_in_workers(self, nsfnet_bpsk_config,
                                                     allocator):
        serial = sweep_reports(nsfnet_bpsk_config, [900, 1500], allocator,
                               algorithm_name="mine")
        parallel = sweep_reports(nsfnet_bpsk_config, [900, 1500], allocator,
                                 algorithm_name="mine", workers=2)
        assert counts(serial) == counts(parallel)
        assert [report.algorithm for report in serial] == ["mine", "mine"]
        assert all(report.blocked for report in serial)
        assert counts(serial) != counts(sweep_reports(
            nsfnet_bpsk_config, [900, 1500], first_last_fit, algorithm_name="mine"))

    def test_a_lambda_runs_serially_but_cannot_reach_workers(self, base_config):
        reports = sweep_reports(base_config, [18, 90], blocks_everything)
        assert [report.blocking_probability for report in reports] == [1.0, 1.0]
        with pytest.raises(pickle.PicklingError):
            sweep_reports(base_config, [18, 90], blocks_everything, workers=2)
        assert multiprocessing.active_children() == []

    def test_pool_has_at_most_one_process_per_load(self, base_config, monkeypatch):
        requested = []

        class SerialPool:
            """Stands in for the process pool and forks nothing."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, function, iterable):
                return map(function, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        reports = sweep_reports(base_config, [18, 54, 90], first_fit, workers=8)
        assert requested == [3]
        assert curve(reports) == curve(sweep_reports(base_config, [18, 54, 90],
                                                     first_fit))
        sweep_reports(base_config, [18], first_fit, workers=8)
        assert requested == [3]  # a single load runs in this process

    def test_failures_are_tagged_with_their_load(self, chain_net, one_slot_catalog):
        routes = eonsim.RouteSet()
        routes.add_node_path(chain_net, [0, 1])
        config = SimulatorConfig(
            network=chain_net, routes=routes, catalog=one_slot_catalog,
            profile=TrafficProfile(goal_connections=100))
        with pytest.raises(EonSimError, match="lambda=30"):
            sweep_reports(config, [30], first_fit)

    def test_parallel_failures_are_tagged_with_their_load(self, chain_net,
                                                          one_slot_catalog):
        routes = eonsim.RouteSet()
        routes.add_node_path(chain_net, [0, 1])
        config = SimulatorConfig(
            network=chain_net, routes=routes, catalog=one_slot_catalog,
            profile=TrafficProfile(goal_connections=100))
        with pytest.raises(EonSimError, match="lambda=30"):
            sweep_reports(config, [30, 60], first_fit, workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_rate_fails_before_any_run(self, base_config, capsys, workers):
        with pytest.raises(ValueError, match="arrival rate .* got nan"):
            sweep_reports(base_config, [18, float("nan"), 90], first_fit,
                          workers=workers, progress_every=100)
        assert capsys.readouterr().out == ""

    def test_empty_lambda_list(self, base_config):
        with pytest.raises(ValueError):
            sweep_reports(base_config, [], first_fit)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True])
    def test_workers_below_one_rejected(self, base_config, workers):
        with pytest.raises(ValueError, match="workers"):
            sweep_reports(base_config, [18, 54, 90], first_fit, workers=workers)
