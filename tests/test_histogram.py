"""Tests for the log-linear latency histogram."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histogram import LatencyHistogram


class TestBasics:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.summary()["max"] == 0.0

    def test_single_value(self):
        hist = LatencyHistogram()
        hist.record(1e-3)
        assert hist.count == 1
        assert hist.mean == pytest.approx(1e-3)
        assert hist.percentile(50) == pytest.approx(1e-3, rel=0.05)
        assert hist.percentile(99) == pytest.approx(1e-3, rel=0.05)

    def test_mean_is_exact(self):
        hist = LatencyHistogram()
        for value in (1e-6, 2e-6, 3e-6):
            hist.record(value)
        assert hist.mean == pytest.approx(2e-6)

    def test_percentile_order(self):
        hist = LatencyHistogram()
        for i in range(1, 101):
            hist.record(i * 1e-4)
        p50 = hist.percentile(50)
        p95 = hist.percentile(95)
        p99 = hist.percentile(99)
        assert p50 <= p95 <= p99
        assert p50 == pytest.approx(50e-4, rel=0.05)
        assert p99 == pytest.approx(99e-4, rel=0.05)

    def test_clamping(self):
        hist = LatencyHistogram(min_value=1e-6, max_value=1.0)
        hist.record(1e-12)   # below min: clamped
        hist.record(100.0)   # above max: clamped
        assert hist.count == 2
        assert hist.percentile(1) >= 1e-6 * 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=1.0, max_value=0.5)
        with pytest.raises(ValueError):
            LatencyHistogram(sub_buckets=1)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)

    def test_summary_keys(self):
        hist = LatencyHistogram()
        hist.record(5e-3)
        summary = hist.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99",
                                "max"}
        assert summary["count"] == 1


class TestMerge:
    def test_merge_combines(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        for i in range(50):
            a.record(1e-3)
            b.record(2e-3)
        a.merge(b)
        assert a.count == 100
        assert a.mean == pytest.approx(1.5e-3)
        assert a.percentile(25) == pytest.approx(1e-3, rel=0.05)
        assert a.percentile(75) == pytest.approx(2e-3, rel=0.05)

    def test_merge_config_mismatch(self):
        a = LatencyHistogram(sub_buckets=32)
        b = LatencyHistogram(sub_buckets=64)
        with pytest.raises(ValueError):
            a.merge(b)


class TestAccuracyProperty:
    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(
        st.floats(min_value=1e-7, max_value=10.0),
        min_size=1, max_size=300))
    def test_percentiles_within_relative_error(self, values):
        """Every reported percentile lies within the histogram's bucket
        resolution (~2/sub_buckets relative error) of the exact order
        statistic."""
        hist = LatencyHistogram(sub_buckets=32)
        for value in values:
            hist.record(value)
        ordered = sorted(values)
        for p in (50, 90, 99):
            import math
            rank = max(1, math.ceil(len(ordered) * p / 100.0))
            exact = ordered[rank - 1]
            reported = hist.percentile(p)
            assert reported == pytest.approx(exact, rel=0.10), \
                f"p{p}: reported {reported} vs exact {exact}"

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(
        st.floats(min_value=1e-7, max_value=10.0),
        min_size=1, max_size=200))
    def test_count_and_extremes_exact(self, values):
        hist = LatencyHistogram()
        for value in values:
            hist.record(value)
        assert hist.count == len(values)
        assert hist.min_seen == min(values)
        assert hist.max_seen == max(values)


def reference_record(hist, value):
    """The plain ``min``/``max``/``floor`` formula ``record`` inlines,
    kept here as the reference."""
    clamped = min(max(value, hist.min_value), hist.max_value)
    exponent = int(math.floor(math.log2(clamped / hist.min_value)))
    exponent = min(exponent, hist._decades - 1)
    low = hist.min_value * (2 ** exponent)
    fraction = (clamped - low) / low
    sub = min(int(fraction * hist.sub_buckets), hist.sub_buckets - 1)
    if hist._rows[exponent] is None:
        hist._rows[exponent] = [0] * hist.sub_buckets
    hist._rows[exponent][sub] += 1
    hist.count += 1
    hist.total += value
    hist.min_seen = min(hist.min_seen, value)
    hist.max_seen = max(hist.max_seen, value)


def boundary_values(hist):
    """Every bucket's lower edge and its two ``nextafter`` neighbours,
    plus zero, negatives and values past ``max_value``."""
    values = [0.0, -0.0, -1e-6, -5.0, hist.max_value * 1.5, 1e9]
    for index in range(hist._decades * hist.sub_buckets):
        exponent, sub = divmod(index, hist.sub_buckets)
        low = hist.min_value * (2 ** exponent)
        edge = low * (1 + sub / hist.sub_buckets)
        values += [math.nextafter(edge, -math.inf), edge,
                   math.nextafter(edge, math.inf)]
    for edge in (hist.min_value, hist.max_value):
        values += [math.nextafter(edge, -math.inf), edge,
                   math.nextafter(edge, math.inf)]
    return values


class TestRecordMatchesPlainFormula:
    @pytest.mark.parametrize("config", [
        {}, {"sub_buckets": 7}, {"min_value": 1e-6, "max_value": 1.0}])
    def test_same_buckets_total_and_extremes(self, config):
        fast = LatencyHistogram(**config)
        plain = LatencyHistogram(**config)
        rng = random.Random(1)
        values = boundary_values(fast)
        values += [math.exp(rng.uniform(-25.0, 6.0)) for _ in range(20000)]
        for value in values:
            fast.record(value)
            reference_record(plain, value)
        assert fast._rows == plain._rows
        assert (fast.count, fast.total, fast.min_seen, fast.max_seen) == (
            plain.count, plain.total, plain.min_seen, plain.max_seen)


class DenseReference:
    """The flat ``decades x sub_buckets`` histogram the row layout
    replaced, kept as the reference for ``percentile``, ``summary`` and
    ``merge``: every range's counters exist from the start, and a
    percentile walks all of them."""

    def __init__(self, hist):
        self.hist = hist
        self.counts = [0] * (hist._decades * hist.sub_buckets)
        self.count = 0
        self.total = 0.0
        self.max_seen = 0.0

    def record(self, value):
        hist = self.hist
        clamped = min(max(value, hist.min_value), hist.max_value)
        exponent = min(int(math.floor(math.log2(clamped / hist.min_value))),
                       hist._decades - 1)
        low = hist.min_value * (2 ** exponent)
        sub = min(int((clamped - low) / low * hist.sub_buckets),
                  hist.sub_buckets - 1)
        self.counts[exponent * hist.sub_buckets + sub] += 1
        self.count += 1
        self.total += value
        self.max_seen = max(self.max_seen, value)

    def merge(self, other):
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        self.max_seen = max(self.max_seen, other.max_seen)

    def percentile(self, p):
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(self.count * p / 100.0))
        running = 0
        for index, bucket_count in enumerate(self.counts):
            running += bucket_count
            if running >= target:
                exponent, sub = divmod(index, self.hist.sub_buckets)
                low = self.hist.min_value * (2 ** exponent)
                return low * (1 + (sub + 0.5) / self.hist.sub_buckets)
        return self.max_seen

    def summary(self):
        return {
            "count": self.count,
            "mean": self.total / self.count if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max_seen if self.count else 0.0,
        }


def recorded(values, **config):
    """A histogram and its dense reference, both fed ``values``."""
    hist = LatencyHistogram(**config)
    dense = DenseReference(hist)
    for value in values:
        hist.record(value)
        dense.record(value)
    return hist, dense


def counter_bytes(hist):
    return sum(sys.getsizeof(row) for row in hist._rows if row is not None)


#: Zero, negatives, the whole 1 ns - 100 s span and values past it.
any_value = st.one_of(
    st.just(0.0),
    st.floats(min_value=-10.0, max_value=0.0),
    st.floats(min_value=1e-10, max_value=1e3),
)


class TestRowsOnFirstSample:
    def test_memory_follows_recorded_ranges(self):
        hist = LatencyHistogram(sub_buckets=1024)
        assert hist._rows == [None] * hist._decades
        assert counter_bytes(hist) == 0
        rng = random.Random(1)
        for _ in range(20000):
            hist.record(math.exp(rng.uniform(math.log(50e-6),
                                             math.log(5e-3))))
        rows = [row for row in hist._rows if row is not None]
        assert 0 < len(rows) <= 8
        assert counter_bytes(hist) < 70 * 1024

    @pytest.mark.parametrize("p", [0, 1, 50, 99, 100])
    def test_one_sample_per_far_range(self, p):
        hist, dense = recorded([2e-9, 1e-3, 50.0], sub_buckets=64)
        assert sum(row is not None for row in hist._rows) == 3
        assert hist.percentile(p) == dense.percentile(p)

    def test_recording_into_a_merge_leaves_the_source_alone(self):
        source = LatencyHistogram(sub_buckets=64)
        for value in (1e-4, 2e-4, 3e-3):
            source.record(value)
        before = [None if row is None else list(row)
                  for row in source._rows]
        merged = LatencyHistogram(sub_buckets=64)
        merged.merge(source)
        for value in (1e-4, 2e-4, 3e-3, 7e-1):
            merged.record(value)
        assert source._rows == before
        assert source.summary()["count"] == 3
        assert merged.count == 7


class TestMatchesDenseReference:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(any_value, max_size=200),
           sub_buckets=st.sampled_from([2, 7, 32, 1024]))
    def test_percentile_and_summary(self, values, sub_buckets):
        hist, dense = recorded(values, sub_buckets=sub_buckets)
        for p in (0, 0.1, 25, 50, 90, 99.9, 100):
            assert hist.percentile(p) == dense.percentile(p)
        assert hist.summary() == dense.summary()

    @settings(max_examples=60, deadline=None)
    @given(left=st.lists(any_value, max_size=100),
           right=st.lists(any_value, max_size=100))
    def test_merge(self, left, right):
        hist, dense = recorded(left, sub_buckets=32)
        other, other_dense = recorded(right, sub_buckets=32)
        hist.merge(other)
        dense.merge(other_dense)
        for p in (0, 1, 50, 99, 100):
            assert hist.percentile(p) == dense.percentile(p)
        assert hist.summary() == dense.summary()

    @settings(max_examples=30, deadline=None)
    @given(low=st.lists(st.floats(min_value=1e-8, max_value=9e-7),
                        min_size=1, max_size=50),
           high=st.lists(st.floats(min_value=1e-2, max_value=5.0),
                         min_size=1, max_size=50))
    def test_merge_of_disjoint_ranges(self, low, high):
        for first, second in ((low, high), (high, low)):
            hist, dense = recorded(first)
            other, other_dense = recorded(second)
            hist.merge(other)
            dense.merge(other_dense)
            assert hist.summary() == dense.summary()
            assert hist.percentile(0) == dense.percentile(0)
            assert hist.percentile(100) == dense.percentile(100)


class TestClientIntegration:
    def test_txn_stats_populate_histogram(self):
        from repro.harness.cluster import Cluster, ClusterConfig
        from repro.harness.metrics import merged_latency_histogram

        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=1, num_clients=2,
            backend="dram", populate_keys=10, seed=101))
        client = cluster.clients[0]

        def work():
            for i in range(5):
                txn = client.begin()
                yield client.txn_get(txn, f"key:{i}")
                yield client.commit(txn)

        cluster.sim.run_until_event(cluster.sim.process(work()))
        merged = merged_latency_histogram(cluster.clients)
        assert merged.count == 5
        assert merged.percentile(50) > 0
