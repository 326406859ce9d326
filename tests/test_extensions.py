"""Tests for the future-work extension an ablation row measures: client
caching."""

from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import ABORTED, COMMITTED, CachingMilanaClient


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
