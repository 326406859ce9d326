"""Tests for the experiment harness: cluster builder, metrics, reports."""

import pytest

from repro.harness import (
    Cluster,
    ClusterConfig,
    format_table,
    format_value,
    run_retwis_on_cluster,
    series_block,
    snapshot,
    window_metrics,
)
from repro.harness.metrics import StatsSnapshot
from repro.milana import COMMITTED


class TestClusterConfig:
    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ClusterConfig(backend="tape")

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_shards=0)

    def test_defaults_construct(self):
        cluster = Cluster(ClusterConfig(populate_keys=10))
        assert len(cluster.clients) == 4
        assert len(cluster.servers) == 3


class TestClusterBuild:
    def test_topology_matches_config(self):
        cluster = Cluster(ClusterConfig(
            num_shards=2, replicas_per_shard=3, num_clients=5,
            backend="dram"))
        assert len(cluster.servers) == 6
        assert len(cluster.clients) == 5
        assert cluster.directory.shard_names == ["shard0", "shard1"]

    def test_populate_reaches_all_replicas_of_owner_shard(self):
        cluster = Cluster(ClusterConfig(
            num_shards=2, replicas_per_shard=2, num_clients=1,
            backend="dram", populate_keys=40))
        for key in cluster.populated_keys:
            shard = cluster.directory.shard_of(key)
            for replica in shard.replicas:
                assert cluster.servers[replica].backend.contains(key)

    def test_flash_backends_get_devices(self):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=1, backend="mftl",
            populate_keys=50))
        assert len(cluster.devices) == 1
        server = next(iter(cluster.servers.values()))
        assert server.backend.contains("key:0")

    def test_sftl_backend_is_single_version(self):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=1, backend="sftl",
            populate_keys=10))
        server = next(iter(cluster.servers.values()))
        assert server.backend.multi_version is False

    def test_clock_preset_applies_to_clients(self):
        cluster = Cluster(ClusterConfig(
            num_clients=3, clock_preset="ntp", populate_keys=5))
        cluster.sim.run(until=1.0)
        offsets = [abs(c.clock.offset()) for c in cluster.clients]
        assert max(offsets) > 1e-5, "NTP clients should have visible skew"

    def test_total_stats_aggregates(self):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=1, num_clients=1,
            backend="dram", populate_keys=5))
        client = cluster.clients[0]

        def work():
            txn = client.begin()
            yield client.txn_get(txn, "key:0")
            outcome = yield client.commit(txn)
            return outcome

        assert cluster.sim.run_until_event(
            cluster.sim.process(work())) == COMMITTED
        totals = snapshot(cluster.sim.now, cluster.clients)
        assert totals.started == 1
        assert totals.committed == 1
        assert totals.aborted == 0


class TestMetrics:
    def _snap(self, time, committed, aborted, latency):
        return StatsSnapshot(
            time=time, started=committed + aborted, committed=committed,
            aborted=aborted, latency_total=latency,
            latency_committed_total=latency, local_validations=0,
            remote_validations=0)

    def test_window_diff(self):
        before = self._snap(1.0, 10, 2, 0.012)
        after = self._snap(3.0, 40, 12, 0.052)
        window = window_metrics(before, after)
        assert window.duration == 2.0
        assert window.committed == 30
        assert window.aborted == 10
        assert window.throughput == 15.0
        assert window.abort_rate == 0.25
        assert window.mean_latency == pytest.approx(0.04 / 40)

    def test_empty_window(self):
        snap = self._snap(1.0, 5, 5, 0.1)
        window = window_metrics(snap, snap)
        assert window.throughput == 0.0
        assert window.abort_rate == 0.0
        assert window.mean_latency == 0.0

    def test_snapshot_of_real_clients(self):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=1, num_clients=2,
            backend="dram", populate_keys=5))
        snap = snapshot(cluster.sim.now, cluster.clients)
        assert snap.committed == 0
        assert snap.started == 0


class TestRunner:
    def test_retwis_run_produces_metrics(self):
        config = ClusterConfig(
            num_shards=1, replicas_per_shard=1, num_clients=3,
            backend="dram", populate_keys=100, seed=31)
        result = run_retwis_on_cluster(
            config, alpha=0.5, duration=0.1, warmup=0.02)
        assert result.metrics.committed > 0
        assert result.throughput > 0
        assert 0.0 <= result.abort_rate < 1.0
        assert result.mean_latency > 0

    def test_mix_override(self):
        from repro.workloads import RETWIS_MIX_75_READONLY
        config = ClusterConfig(
            num_shards=1, replicas_per_shard=1, num_clients=2,
            backend="dram", populate_keys=100, seed=31)
        result = run_retwis_on_cluster(
            config, alpha=0.3, duration=0.1, warmup=0.02,
            mix=RETWIS_MIX_75_READONLY)
        counts = {}
        for instance in result.instances:
            for name, count in instance.stats.by_type.items():
                counts[name] = counts.get(name, 0) + count
        total = sum(counts.values())
        assert counts.get("get_timeline", 0) / total > 0.55


class TestReport:
    def test_format_value_scales(self):
        assert format_value(1234.5) == "1,234"
        assert format_value(12.345) == "12.35"
        assert format_value(0.5) == "0.5"
        assert format_value(42e-6) == "42.0u"
        assert format_value(3e-9) == "3.0n"
        assert format_value(0) == "0"
        assert format_value("text") == "text"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["alpha", 1.0], ["beta", 22.5]],
                            title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_series_block(self):
        text = series_block("ptp", [0.4, 0.8], [0.1, 0.2],
                            x_label="alpha", y_label="aborts")
        assert text.startswith("ptp [alpha -> aborts]:")
        assert "(0.4, 0.1)" in text
