"""Tests for SEMEL: sharding, watermarks, replication, and the KV service."""

import pytest

from repro.clocks import PerfectClock
from repro.ftl import DRAMBackend
from repro.net import AppError, FixedLatency, Network, RpcTimeout
from repro.semel import (
    Directory,
    HashRing,
    QuorumError,
    SemelClient,
    ShardInfo,
    StorageServer,
    WatermarkTracker,
)
from repro.sim import SeededRng, Simulator
from repro.wire import SemelGet


class TestHashRing:
    def test_deterministic(self):
        ring1 = HashRing(["a", "b", "c"])
        ring2 = HashRing(["a", "b", "c"])
        keys = [f"key{i}" for i in range(100)]
        assert [ring1.owner_of(k) for k in keys] == \
            [ring2.owner_of(k) for k in keys]

    def test_covers_all_shards_roughly_evenly(self):
        ring = HashRing(["a", "b", "c"], vnodes=128)
        counts = {"a": 0, "b": 0, "c": 0}
        for i in range(3000):
            counts[ring.owner_of(f"key{i}")] += 1
        for shard, count in counts.items():
            assert count > 500, f"shard {shard} got only {count} keys"

    def test_single_shard_owns_everything(self):
        ring = HashRing(["only"])
        assert ring.owner_of("anything") == "only"

    def test_adding_shard_moves_minority_of_keys(self):
        before = HashRing(["a", "b", "c"], vnodes=128)
        after = HashRing(["a", "b", "c", "d"], vnodes=128)
        keys = [f"key{i}" for i in range(2000)]
        moved = sum(1 for k in keys
                    if before.owner_of(k) != after.owner_of(k))
        assert moved < len(keys) * 0.45

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)


class TestShardInfo:
    def test_primary_and_backups(self):
        shard = ShardInfo("s0", ["n1", "n2", "n3"])
        assert shard.primary == "n1"
        assert shard.backups == ["n2", "n3"]
        assert shard.fault_tolerance == 1

    def test_promote(self):
        shard = ShardInfo("s0", ["n1", "n2", "n3"])
        shard.promote("n3")
        assert shard.primary == "n3"
        assert set(shard.backups) == {"n1", "n2"}

    def test_promote_non_member_rejected(self):
        shard = ShardInfo("s0", ["n1"])
        with pytest.raises(ValueError):
            shard.promote("stranger")

    def test_fault_tolerance_by_size(self):
        assert ShardInfo("s", ["a"]).fault_tolerance == 0
        assert ShardInfo("s", ["a", "b", "c"]).fault_tolerance == 1
        assert ShardInfo("s", list("abcde")).fault_tolerance == 2


class TestWatermarkTracker:
    def test_empty_is_minus_inf(self):
        assert WatermarkTracker().watermark == float("-inf")

    def test_min_over_clients(self):
        tracker = WatermarkTracker()
        tracker.report(1, 10.0)
        tracker.report(2, 5.0)
        assert tracker.watermark == 5.0

    def test_waits_for_expected_clients(self):
        tracker = WatermarkTracker(expected_clients=[1, 2])
        tracker.report(1, 10.0)
        assert tracker.watermark == float("-inf")
        tracker.report(2, 7.0)
        assert tracker.watermark == 7.0

    def test_reports_monotonic_per_client(self):
        tracker = WatermarkTracker()
        tracker.report(1, 10.0)
        tracker.report(1, 3.0)  # stale report ignored
        assert tracker.watermark == 10.0

    def test_forget_unblocks(self):
        tracker = WatermarkTracker(expected_clients=[1, 2])
        tracker.report(1, 10.0)
        tracker.forget(2)
        assert tracker.watermark == 10.0


def build_cluster(num_shards=1, replicas_per_shard=3, num_clients=1,
                  latency=None, seed=7):
    """A minimal SEMEL deployment on DRAM backends with perfect clocks."""
    sim = Simulator()
    rng = SeededRng(seed)
    network = Network(sim, rng, latency=latency or FixedLatency(50e-6))
    shards = {}
    for s in range(num_shards):
        shards[f"shard{s}"] = [f"srv-{s}-{r}" for r in range(replicas_per_shard)]
    directory = Directory(shards)
    servers = {}
    for shard_name, replica_names in shards.items():
        for server_name in replica_names:
            servers[server_name] = StorageServer(
                sim, network, directory, server_name, shard_name,
                DRAMBackend(sim))
    clients = [
        SemelClient(sim, network, directory, PerfectClock(sim),
                    client_id=i)
        for i in range(num_clients)
    ]
    return sim, network, directory, servers, clients


class TestSemelService:
    def test_put_get_roundtrip(self):
        sim, _, _, _, (client,) = build_cluster()
        version = sim.run_until_event(client.put("user:1", {"name": "ada"}))
        result = sim.run_until_event(client.get("user:1"))
        assert result == (version, {"name": "ada"})

    def test_get_missing_key(self):
        sim, _, _, _, (client,) = build_cluster()
        assert sim.run_until_event(client.get("ghost")) is None

    def test_version_carries_client_id(self):
        sim, _, _, _, (client,) = build_cluster()
        version = sim.run_until_event(client.put("k", 1))
        assert version.client_id == client.client_id

    def test_snapshot_read_in_past(self):
        sim, _, _, _, (client,) = build_cluster()
        v1 = sim.run_until_event(client.put("k", "old"))
        sim.run(until=sim.now + 1.0)
        sim.run_until_event(client.put("k", "new"))
        result = sim.run_until_event(
            client.get("k", at=v1.timestamp + 0.5))
        assert result == (v1, "old")

    def test_delete_removes_key(self):
        sim, _, _, _, (client,) = build_cluster()
        sim.run_until_event(client.put("k", 1))
        sim.run_until_event(client.delete("k"))
        assert sim.run_until_event(client.get("k")) is None

    def test_data_reaches_backups(self):
        sim, _, _, servers, (client,) = build_cluster()
        sim.run_until_event(client.put("k", "replicated"))
        sim.run(until=sim.now + 10e-3)  # let laggard replication land
        holders = [name for name, server in servers.items()
                   if server.backend.contains("k")]
        assert len(holders) == 3

    def test_put_survives_one_backup_failure(self):
        sim, network, _, servers, (client,) = build_cluster()
        network.crash("srv-0-2")
        version = sim.run_until_event(client.put("k", "v"))
        assert sim.run_until_event(client.get("k")) == (version, "v")

    def test_put_blocks_without_backup_quorum(self):
        sim, network, _, _, (client,) = build_cluster()
        network.crash("srv-0-1")
        network.crash("srv-0-2")

        def attempt():
            try:
                yield client.put("k", "v")
            except (RpcTimeout, AppError, QuorumError) as exc:
                return type(exc).__name__

        result = sim.run_until_event(sim.process(attempt()))
        assert result in ("RpcTimeout", "AppError")

    def test_stale_write_rejected(self):
        """A client whose clock lags far enough behind sees rejections
        under contention — the §3.3 tradeoff."""
        sim, network, directory, _, _ = build_cluster(num_clients=0)

        class LaggingClock(PerfectClock):
            def _raw_now(self):
                return self.sim.now - 1.0

        leader = SemelClient(sim, network, directory,
                             PerfectClock(sim), client_id=1)
        laggard = SemelClient(sim, network, directory,
                              LaggingClock(sim), client_id=2)
        sim.run(until=2.0)
        sim.run_until_event(leader.put("k", "leader"))

        def lag_put():
            try:
                yield laggard.put("k", "laggard")
            except AppError as exc:
                return f"rejected: {exc}"

        result = sim.run_until_event(sim.process(lag_put()))
        assert result.startswith("rejected")
        assert sim.run_until_event(leader.get("k"))[1] == "leader"

    def test_duplicate_requests_idempotent(self):
        sim = Simulator()
        rng = SeededRng(11)
        network = Network(sim, rng, latency=FixedLatency(50e-6))
        network.install_faults().set_duplicate(0.8)
        directory = Directory({"shard0": ["srv-0"]})
        server = StorageServer(sim, network, directory, "srv-0", "shard0",
                               DRAMBackend(sim))
        client = SemelClient(sim, network, directory, PerfectClock(sim),
                             client_id=1)
        for i in range(20):
            sim.run_until_event(client.put(f"k{i}", i))
        sim.run(until=sim.now + 5e-3)
        for i in range(20):
            versions = server.backend.versions_of(f"k{i}")
            assert len(versions) == 1, f"k{i} has {len(versions)} versions"

    def test_writes_serialize_in_timestamp_order(self):
        """Concurrent writers with synchronized clocks: the surviving
        latest version is the one with the largest (ts, client) stamp and
        every acknowledged write is present or superseded."""
        sim, _, _, servers, clients = build_cluster(num_clients=4)
        acked = []

        def writer(client, n):
            for i in range(n):
                version = yield client.put("hot", f"{client.client_id}-{i}")
                acked.append(version)
                yield sim.timeout(1e-4)

        procs = [sim.process(writer(c, 10)) for c in clients]
        for proc in procs:
            sim.run_until_event(proc)
        latest = sim.run_until_event(clients[0].get("hot"))
        assert latest[0] == max(acked)

    def test_watermark_broadcast_reaches_backends(self):
        sim, _, _, servers, (client,) = build_cluster()
        sim.run_until_event(client.put("k", 1))
        client.broadcast_watermark()
        sim.run(until=sim.now + 1e-3)
        for server in servers.values():
            assert server.backend.watermark == client.last_acked_timestamp

    def test_watermark_daemon_periodic(self):
        sim, _, _, servers, (client,) = build_cluster()
        client.start_watermark_daemon(interval=0.05)
        sim.run_until_event(client.put("k", 1))
        first = client.last_acked_timestamp
        sim.run(until=sim.now + 0.2)
        for server in servers.values():
            assert server.backend.watermark == first

    def test_multi_shard_routing(self):
        sim, _, directory, servers, (client,) = build_cluster(num_shards=3)
        keys = [f"key{i}" for i in range(30)]
        for key in keys:
            sim.run_until_event(client.put(key, key))
        sim.run(until=sim.now + 10e-3)
        for key in keys:
            shard = directory.shard_of(key)
            primary = servers[shard.primary]
            assert primary.backend.contains(key), \
                f"{key} missing from its shard primary {shard.primary}"
        # Keys actually spread over multiple shards.
        owners = {directory.shard_of(k).name for k in keys}
        assert len(owners) > 1

    def test_non_primary_rejects_client_ops(self):
        sim, network, directory, servers, (client,) = build_cluster()

        def direct_to_backup():
            try:
                yield client.node.call(
                    "srv-0-1", "semel.get", SemelGet(key="k"))
            except AppError as exc:
                return str(exc)

        result = sim.run_until_event(sim.process(direct_to_backup()))
        assert "not the primary" in result
