"""Tests for the future-work extensions: client caching and
nearest-replica reads."""

import pytest

from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import (
    ABORTED,
    COMMITTED,
    CachingMilanaClient,
    NearestReplicaClient,
)


def caching_cluster(**overrides):
    def factory(sim, network, directory, clock, client_id, lv):
        return CachingMilanaClient(
            sim, network, directory, clock, client_id=client_id,
            local_validation=lv)

    defaults = dict(num_shards=1, replicas_per_shard=1, num_clients=2,
                    backend="dram", populate_keys=20, seed=83,
                    client_factory=factory)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


class TestCachingClient:
    def test_hinted_txn_reads_from_cache(self):
        cluster = caching_cluster()
        client = cluster.clients[0]
        sim = cluster.sim

        def work():
            warm = client.begin(read_write_hint=True)
            yield client.txn_get(warm, "key:0")
            yield client.commit(warm)

            sent_before = cluster.network.stats.messages_sent
            txn = client.begin(read_write_hint=True)
            value = yield client.txn_get(txn, "key:0")
            reads_on_wire = (cluster.network.stats.messages_sent
                             - sent_before)
            outcome = yield client.commit(txn)
            return value, reads_on_wire, outcome

        value, reads_on_wire, outcome = sim.run_until_event(
            sim.process(work()))
        assert value == "value-of-key:0"
        assert reads_on_wire == 0, "second read must be a cache hit"
        assert outcome == COMMITTED  # remote validation confirmed it
        assert client.cache_hits == 1

    def test_stale_cache_aborts_then_recovers(self):
        cluster = caching_cluster()
        cacher, writer = cluster.clients
        sim = cluster.sim

        def work():
            # Warm the cache.
            warm = cacher.begin(read_write_hint=True)
            yield cacher.txn_get(warm, "key:1")
            yield cacher.commit(warm)
            # Another client overwrites the key.
            overwrite = writer.begin()
            yield writer.txn_get(overwrite, "key:1")
            writer.put(overwrite, "key:1", "freshened")
            assert (yield writer.commit(overwrite)) == COMMITTED
            yield sim.timeout(1e-3)
            # Cached read is now stale: remote validation must abort.
            stale = cacher.begin(read_write_hint=True)
            value = yield cacher.txn_get(stale, "key:1")
            assert value == "value-of-key:1"   # stale cache served it
            outcome1 = yield cacher.commit(stale)
            # Retry refetches (cache invalidated on abort) and commits.
            retry = cacher.begin(read_write_hint=True)
            value2 = yield cacher.txn_get(retry, "key:1")
            outcome2 = yield cacher.commit(retry)
            return outcome1, outcome2, value2

        outcome1, outcome2, value2 = sim.run_until_event(
            sim.process(work()))
        assert outcome1 == ABORTED
        assert outcome2 == COMMITTED
        assert value2 == "freshened"

    def test_unhinted_txn_bypasses_cache(self):
        cluster = caching_cluster()
        client = cluster.clients[0]
        sim = cluster.sim

        def work():
            warm = client.begin(read_write_hint=True)
            yield client.txn_get(warm, "key:2")
            yield client.commit(warm)
            txn = client.begin()   # no hint: local validation path
            sent_before = cluster.network.stats.messages_sent
            yield client.txn_get(txn, "key:2")
            reads_on_wire = (cluster.network.stats.messages_sent
                             - sent_before)
            outcome = yield client.commit(txn)
            return reads_on_wire, outcome

        reads_on_wire, outcome = sim.run_until_event(sim.process(work()))
        assert reads_on_wire > 0, "unhinted reads must hit the server"
        assert outcome == COMMITTED

    def test_cache_capacity_bounds(self):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=1, num_clients=1,
            backend="dram", populate_keys=30, seed=83,
            client_factory=lambda sim, net, d, clk, cid, lv:
                CachingMilanaClient(sim, net, d, clk, client_id=cid,
                                    cache_capacity=5)))
        client = cluster.clients[0]
        sim = cluster.sim

        def work():
            for i in range(10):
                txn = client.begin(read_write_hint=True)
                yield client.txn_get(txn, f"key:{i}")
                yield client.commit(txn)

        sim.run_until_event(sim.process(work()))
        assert len(client._cache) <= 5


def nearest_cluster(**overrides):
    def factory(sim, network, directory, clock, client_id, lv):
        return NearestReplicaClient(
            sim, network, directory, clock, client_id=client_id,
            local_validation=lv)

    defaults = dict(num_shards=1, replicas_per_shard=3, num_clients=1,
                    backend="dram", populate_keys=30, seed=89,
                    client_factory=factory)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


class TestNearestReplicaClient:
    def test_hinted_reads_spread_over_replicas(self):
        cluster = nearest_cluster()
        client = cluster.clients[0]
        sim = cluster.sim

        def work():
            outcomes = []
            for i in range(15):
                txn = client.begin(read_write_hint=True)
                yield client.txn_get(txn, f"key:{i}")
                client.put(txn, f"key:{i}", f"updated-{i}")
                outcomes.append((yield client.commit(txn)))
                yield sim.timeout(1e-3)
            return outcomes

        outcomes = sim.run_until_event(sim.process(work()))
        assert all(outcome == COMMITTED for outcome in outcomes)
        # Backups actually served reads: their get counters moved beyond
        # what replication writes would explain.
        backup_gets = sum(
            cluster.servers[name].backend.stats.gets
            for name in ("srv-0-1", "srv-0-2"))
        assert backup_gets > 0

    @pytest.mark.parametrize("key, replica", [("key:0", "srv-0-1"),
                                              ("key:2", "srv-0-2")])
    def test_replica_choice_is_process_independent(self, key, replica):
        """The replica is picked by the stable hash, not the salted
        builtin ``hash``: the same key reads from the same replica under
        every PYTHONHASHSEED."""
        cluster = nearest_cluster()
        client = cluster.clients[0]

        def gets():
            return {name: server.backend.stats.gets
                    for name, server in cluster.servers.items()}

        before = gets()
        txn = client.begin(read_write_hint=True)
        cluster.sim.run_until_event(client.txn_get(txn, key))
        served = [name for name, count in gets().items()
                  if count > before[name]]
        assert served == [replica]

    def test_hinted_commits_still_serializable(self):
        """A stale backup read must be caught by primary validation."""
        cluster = nearest_cluster(num_clients=2)
        a, b = cluster.clients
        sim = cluster.sim

        def work():
            t1 = a.begin(read_write_hint=True)
            t2 = b.begin(read_write_hint=True)
            yield a.txn_get(t1, "key:3")
            yield b.txn_get(t2, "key:3")
            a.put(t1, "key:3", "from-a")
            b.put(t2, "key:3", "from-b")
            o1 = yield a.commit(t1)
            o2 = yield b.commit(t2)
            return o1, o2

        o1, o2 = sim.run_until_event(sim.process(work()))
        assert (o1, o2).count(COMMITTED) == 1

    def test_unhinted_txns_use_primary(self):
        cluster = nearest_cluster()
        client = cluster.clients[0]
        sim = cluster.sim

        def work():
            txn = client.begin()
            yield client.txn_get(txn, "key:5")
            return (yield client.commit(txn))

        assert sim.run_until_event(sim.process(work())) == COMMITTED
