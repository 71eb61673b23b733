import math
import numbers
import pickle
from collections import Counter

import pytest

import eonsim
from eonsim import (
    RngStreams,
    Seeds,
    TrafficProfile,
    next_exponential,
    sample_bitrate,
    sample_src_dst,
    uniform_index,
)


class FixedStream:
    """Stands in for a Random stream with a scripted random() sequence."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class TestNextExponential:
    def test_analytic_inverse(self):
        # U = e^-1 at rate 10 inverts to exactly 0.1
        delta = next_exponential(FixedStream([math.exp(-1)]), 10.0)
        assert delta == pytest.approx(0.1, rel=1e-12)

    def test_zero_draw_is_redrawn(self):
        delta = next_exponential(FixedStream([0.0, 0.5]), 1.0)
        assert delta == pytest.approx(-math.log(0.5))

    def test_always_strictly_positive(self):
        stream = RngStreams(Seeds()).arrival
        assert all(next_exponential(stream, 5.0) > 0 for _ in range(10_000))

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_non_positive_rate(self, rate):
        with pytest.raises(ValueError):
            next_exponential(RngStreams().arrival, rate)

    @pytest.mark.parametrize("rate", [18.0, 180.0])
    def test_empirical_mean_within_one_percent(self, rate):
        stream = RngStreams(Seeds()).arrival
        n = 1_000_000
        mean = sum(next_exponential(stream, rate) for _ in range(n)) / n
        assert mean == pytest.approx(1.0 / rate, rel=0.01)

    def test_holding_time_mean_within_one_percent(self):
        stream = RngStreams(Seeds()).departure
        n = 1_000_000
        mean = sum(next_exponential(stream, 10.0) for _ in range(n)) / n
        assert mean == pytest.approx(0.1, rel=0.01)


class TestUniformIndex:
    def test_single_value(self):
        assert uniform_index(RngStreams().source, 1) == 0

    def test_stays_in_range(self):
        stream = RngStreams(Seeds()).source
        assert all(0 <= uniform_index(stream, 13) < 13 for _ in range(20_000))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            uniform_index(RngStreams().source, 0)


class TestSampleSrcDst:
    def test_two_nodes_give_both_ordered_pairs(self):
        streams = RngStreams(Seeds())
        seen = {sample_src_dst(streams, 2) for _ in range(200)}
        assert seen == {(0, 1), (1, 0)}

    def test_dst_never_equals_src(self):
        streams = RngStreams(Seeds())
        assert all(s != d for s, d in (sample_src_dst(streams, 5) for _ in range(20_000)))

    def test_degenerate_network(self):
        with pytest.raises(ValueError):
            sample_src_dst(RngStreams(), 1)

    def test_nsfnet_pair_frequencies_within_three_sigma(self):
        streams = RngStreams(Seeds())
        n = 1_000_000
        counts = Counter(sample_src_dst(streams, 14) for _ in range(n))
        assert len(counts) == 182
        p = 1 / 182
        sigma = math.sqrt(p * (1 - p) / n)
        for pair, count in counts.items():
            assert abs(count / n - p) <= 3 * sigma, pair

    def test_same_seeds_reproduce_the_pair_sequence(self):
        first = [sample_src_dst(RngStreams(Seeds()), 14) for _ in range(1)]
        streams_a = RngStreams(Seeds())
        streams_b = RngStreams(Seeds())
        seq_a = [sample_src_dst(streams_a, 14) for _ in range(5_000)]
        seq_b = [sample_src_dst(streams_b, 14) for _ in range(5_000)]
        assert seq_a == seq_b
        assert seq_a[:1] == first


class TestSampleBitrate:
    def test_single_entry_catalog(self, one_slot_catalog):
        stream = RngStreams(Seeds()).bitrate
        assert all(sample_bitrate(stream, one_slot_catalog) == 0 for _ in range(100))

    def test_five_entry_frequencies_within_three_sigma(self, table_catalog):
        stream = RngStreams(Seeds()).bitrate
        n = 1_000_000
        counts = Counter(sample_bitrate(stream, table_catalog) for _ in range(n))
        sigma = math.sqrt(0.2 * 0.8 / n)
        for index in range(5):
            assert abs(counts[index] / n - 0.2) <= 3 * sigma

    def test_empty_catalog(self):
        with pytest.raises(ValueError):
            sample_bitrate(RngStreams().bitrate, ())

    def test_fixed_seed_reproduces_the_index_sequence(self, table_catalog):
        seq_a = [sample_bitrate(RngStreams(Seeds()).bitrate, table_catalog)
                 for _ in range(1)]
        stream_a = RngStreams(Seeds()).bitrate
        stream_b = RngStreams(Seeds()).bitrate
        assert ([sample_bitrate(stream_a, table_catalog) for _ in range(5_000)]
                == [sample_bitrate(stream_b, table_catalog) for _ in range(5_000)])
        assert sample_bitrate(RngStreams(Seeds()).bitrate, table_catalog) == seq_a[0]


def reference_src_dst(streams, node_count):
    """Pair sampling spelt out with :func:`uniform_index` calls."""
    src = uniform_index(streams.source, node_count)
    dst = uniform_index(streams.destination, node_count)
    while dst == src:
        dst = uniform_index(streams.destination, node_count)
    return src, dst


def one_option_catalog(size):
    option = eonsim.ModulationOption("BPSK", 1, 1e9)
    return eonsim.BitRateCatalog([eonsim.BitRateEntry(10.0 * (i + 1), str(i), (option,))
                                  for i in range(size)])


class TestPinnedToUniformIndex:
    """The samplers draw exactly what ``uniform_index`` draws, value for value."""

    @pytest.mark.parametrize("node_count", [2, 3, 14, 16, 17])
    def test_src_dst_matches_reference(self, node_count):
        seeds = Seeds(source=101, destination=202)
        streams, reference = RngStreams(seeds), RngStreams(seeds)
        got = [sample_src_dst(streams, node_count) for _ in range(10_000)]
        assert got == [reference_src_dst(reference, node_count)
                       for _ in range(10_000)]
        assert streams.source.getstate() == reference.source.getstate()
        assert streams.destination.getstate() == reference.destination.getstate()

    @pytest.mark.parametrize("size", [1, 2, 3, 8])
    def test_bitrate_matches_reference(self, size):
        catalog = one_option_catalog(size)
        stream, reference = RngStreams().bitrate, RngStreams().bitrate
        got = [sample_bitrate(stream, catalog) for _ in range(10_000)]
        assert got == [uniform_index(reference, size) for _ in range(10_000)]
        assert stream.getstate() == reference.getstate()

    def test_one_entry_catalog_draws_nothing(self):
        stream = RngStreams().bitrate
        before = stream.getstate()
        for _ in range(100):
            assert sample_bitrate(stream, one_option_catalog(1)) == 0
        assert stream.getstate() == before

    @pytest.mark.parametrize("node_count", [1, 0, -2])
    def test_degenerate_pair_message(self, node_count):
        with pytest.raises(ValueError,
                           match=f"need at least 2 nodes to sample a pair, "
                                 f"got {node_count}$"):
            sample_src_dst(RngStreams(), node_count)

    def test_empty_catalog_message(self):
        with pytest.raises(ValueError,
                           match="^cannot sample from an empty bitrate catalog$"):
            sample_bitrate(RngStreams().bitrate, ())


class TestStreamIndependence:
    def test_changing_bitrate_seed_leaves_other_streams_identical(self, table_catalog):
        base = RngStreams(Seeds())
        tweaked = RngStreams(Seeds()._replace(bitrate=999))
        for _ in range(2_000):
            assert next_exponential(base.arrival, 3.0) == next_exponential(tweaked.arrival, 3.0)
            assert next_exponential(base.departure, 10.0) == next_exponential(tweaked.departure, 10.0)
            assert sample_src_dst(base, 14) == sample_src_dst(tweaked, 14)
        draws_base = [sample_bitrate(base.bitrate, table_catalog) for _ in range(2_000)]
        draws_tweaked = [sample_bitrate(tweaked.bitrate, table_catalog) for _ in range(2_000)]
        assert draws_base != draws_tweaked


@numbers.Integral.register
class Count:
    """An integer type that is not an ``int``, registered as numpy's int64 is."""

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return self.value < other

    def __eq__(self, other):
        return self.value == other


class TestTrafficProfile:
    def test_defaults(self):
        profile = TrafficProfile()
        assert (profile.arrival_rate, profile.departure_rate,
                profile.goal_connections) == (3.0, 10.0, 100_000)

    def test_default_seed_vector(self):
        assert Seeds() == (12345, 12347, 12349, 12351, 12353)

    def test_erlang(self):
        assert TrafficProfile(arrival_rate=18, departure_rate=10).erlang == 1.8

    @pytest.mark.parametrize("kwargs", [
        {"goal_connections": 0},
        {"arrival_rate": 0.0},
        {"departure_rate": -1.0},
        {"goal_connections": 2.5},
        {"goal_connections": True},
    ])
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrafficProfile(**kwargs)

    def test_integer_types_accepted_as_goal(self):
        assert not isinstance(Count(7), int)
        assert TrafficProfile(goal_connections=Count(7)).goal_connections == 7

    @pytest.mark.parametrize("field", ["arrival_rate", "departure_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_rejected(self, field, value):
        name = field.replace("_", " ")
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite and > 0, got {value}$"):
            TrafficProfile(**{field: value})


class TestCatalogTypes:
    def test_zero_slot_option_rejected(self):
        with pytest.raises(ValueError):
            eonsim.ModulationOption("BPSK", 0, 100.0)
        # A non-int count used to fail the run, blamed on the allocator.
        for slots in (1.5, 2.0, True):
            with pytest.raises(ValueError, match=r"^modulation 'BPSK': slots must "
                                                 f"be an int, got {slots!r}$"):
                eonsim.ModulationOption("BPSK", slots, 100.0)

    def test_entry_needs_options(self):
        with pytest.raises(ValueError):
            eonsim.BitRateEntry(10.0, "10", ())

    def test_entry_keeps_its_options_when_the_callers_list_changes(
            self, pair_net, pair_routes):
        # Sharing the caller's list would let it be emptied after the check,
        # which the catalog and init() do not repeat: every request blocks.
        options = [eonsim.ModulationOption("BPSK", 1, 1e9)]
        entry = eonsim.BitRateEntry(10.0, "10", options)
        options.clear()
        assert entry.options == (eonsim.ModulationOption("BPSK", 1, 1e9),)

        def blocked(entry):
            config = eonsim.SimulatorConfig(
                network=pair_net, routes=pair_routes,
                catalog=eonsim.BitRateCatalog([entry]),
                profile=TrafficProfile(arrival_rate=100.0, departure_rate=10.0,
                                       goal_connections=1000))
            sim = eonsim.Simulator(config, eonsim.first_fit)
            sim.init()
            return sim.run().blocked

        built_from_tuple = eonsim.BitRateEntry(
            10.0, "10", (eonsim.ModulationOption("BPSK", 1, 1e9),))
        assert 0 < blocked(entry) == blocked(built_from_tuple) < 1000

    def test_non_positive_bitrate_rejected(self):
        with pytest.raises(ValueError):
            eonsim.BitRateEntry(0.0, "0", (eonsim.ModulationOption("BPSK", 1, 1.0),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_bitrate_rejected(self, value):
        with pytest.raises(ValueError,
                           match=f"^bitrate must be finite and > 0, got {value}$"):
            eonsim.BitRateEntry(value, str(value),
                                (eonsim.ModulationOption("BPSK", 1, 1.0),))

    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf, -math.inf])
    def test_non_finite_reach_rejected_with_its_value(self, value):
        with pytest.raises(ValueError, match=f"^modulation 'BPSK': reach must be "
                                             f"finite and > 0, got {value}$"):
            eonsim.ModulationOption("BPSK", 1, value)

    def test_catalog_rejects_two_labels_with_one_bitrate(self):
        option = (eonsim.ModulationOption("BPSK", 1, 1.0),)
        with pytest.raises(ValueError, match=r"^bitrate labels '10' and '10\.0' "
                                             r"both give 10 Gbps$"):
            eonsim.BitRateCatalog([eonsim.BitRateEntry(10.0, "10", option),
                                   eonsim.BitRateEntry(40.0, "40", option),
                                   eonsim.BitRateEntry(10.0, "10.0", option)])

    def test_catalog_rejects_one_label_for_two_entries(self):
        option = (eonsim.ModulationOption("BPSK", 1, 1.0),)
        with pytest.raises(ValueError, match=r"^bitrate label 'x' names two entries$"):
            eonsim.BitRateCatalog([eonsim.BitRateEntry(10.0, "x", option),
                                   eonsim.BitRateEntry(40.0, "x", option)])

    def test_catalog_cannot_change_once_checked(self):
        # Reassigning the entries used to skip every check: two "10" entries
        # shared one counter, and () failed the run's first request.
        option = (eonsim.ModulationOption("BPSK", 1, 1.0),)
        entry = eonsim.BitRateEntry(10.0, "10", option)
        catalog = eonsim.BitRateCatalog([entry])
        with pytest.raises(AttributeError):
            catalog.entries = (entry, entry)
        assert (len(catalog), catalog[0], tuple(catalog)) == (1, entry, (entry,))

    def test_pickled_catalog_is_checked_again(self, nsfnet, nsfnet_routes,
                                              table_catalog):
        assert tuple(pickle.loads(pickle.dumps(table_catalog))) == tuple(table_catalog)
        broken = pickle.loads(pickle.dumps(table_catalog))
        broken._entries += broken._entries[:1]
        with pytest.raises(ValueError, match="both give 10 Gbps"):
            pickle.loads(pickle.dumps(broken))
        # sweep_reports pickles the catalog to its workers.
        config = eonsim.SimulatorConfig(
            network=nsfnet, routes=nsfnet_routes, catalog=table_catalog,
            profile=TrafficProfile(departure_rate=10.0, goal_connections=2000))
        serial, pooled = (eonsim.sweep_reports(config, [180, 1500], eonsim.first_fit,
                                               workers=workers) for workers in (1, 2))
        assert [report.per_bitrate for report in pooled] == [
            report.per_bitrate for report in serial]
