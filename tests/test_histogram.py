"""Tests for the log-linear latency histogram."""

import math
import random

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
    hist._counts[exponent * hist.sub_buckets + sub] += 1
    hist.count += 1
    hist.total += value
    hist.min_seen = min(hist.min_seen, value)
    hist.max_seen = max(hist.max_seen, value)


def boundary_values(hist):
    """Every bucket's lower edge and its two ``nextafter`` neighbours,
    plus zero, negatives and values past ``max_value``."""
    values = [0.0, -0.0, -1e-6, -5.0, hist.max_value * 1.5, 1e9]
    for index in range(len(hist._counts)):
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
        assert fast._counts == plain._counts
        assert (fast.count, fast.total, fast.min_seen, fast.max_seen) == (
            plain.count, plain.total, plain.min_seen, plain.max_seen)


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
