"""Tests for the comparison baselines: Centiman, and the single-version
and remote-validation-only modes of the production classes (the ``sftl``
backend kind and figure 8's "w/o LV" axis)."""


from repro.baselines import CentimanClient, WatermarkBoard
from repro.flash import FlashDevice, FlashGeometry
from repro.ftl import MFTLBackend
from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import COMMITTED
from repro.sim import Simulator
from repro.versioning import Version


class TestWatermarkBoard:
    def test_empty_board(self):
        assert WatermarkBoard().watermark == float("-inf")

    def test_min_over_clients(self):
        board = WatermarkBoard()
        board.post(1, 10.0)
        board.post(2, 4.0)
        assert board.watermark == 4.0

    def test_posts_monotonic_per_client(self):
        board = WatermarkBoard()
        board.post(1, 10.0)
        board.post(1, 2.0)
        assert board.watermark == 10.0


class TestSingleVersionBackend:
    def test_is_single_version(self):
        sim = Simulator()
        geometry = FlashGeometry(page_size=4096, pages_per_block=4,
                                 num_blocks=16, num_channels=2)
        backend = MFTLBackend(sim, FlashDevice(sim, geometry),
                              multi_version=False)
        assert backend.multi_version is False
        sim.run_until_event(backend.put("k", "a", Version(1.0, 1)))
        sim.run_until_event(backend.put("k", "b", Version(2.0, 1)))
        assert backend.versions_of("k") == [Version(2.0, 1)]
        # Snapshot in the past misses: the old version is gone.
        assert sim.run_until_event(backend.get("k", max_timestamp=1.5)) \
            is None


def centiman_cluster(dissemination_every=5, **overrides):
    board = WatermarkBoard()

    def factory(sim, network, directory, clock, client_id, lv):
        return CentimanClient(
            sim, network, directory, clock, client_id=client_id,
            watermark_board=board,
            dissemination_every=dissemination_every)

    defaults = dict(num_shards=1, replicas_per_shard=1, num_clients=2,
                    backend="dram", populate_keys=50, seed=23,
                    client_factory=factory)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults)), board


class TestCentimanClient:
    def test_old_data_validates_locally(self):
        """Reads of pre-populated (ancient) data pass the watermark check
        and commit with zero network messages."""
        cluster, board = centiman_cluster()
        client = cluster.clients[0]

        def work():
            txn = client.begin()
            yield client.txn_get(txn, "key:0")
            sent_before = cluster.network.stats.messages_sent
            outcome = yield client.commit(txn)
            return outcome, \
                cluster.network.stats.messages_sent - sent_before

        outcome, messages = cluster.sim.run_until_event(
            cluster.sim.process(work()))
        assert outcome == COMMITTED
        assert messages == 0
        assert client.local_validation_successes == 1

    def test_fresh_data_falls_back_to_remote_validation(self):
        cluster, board = centiman_cluster(dissemination_every=10_000)
        writer, reader = cluster.clients

        def write():
            txn = writer.begin()
            yield writer.txn_get(txn, "key:1")
            writer.put(txn, "key:1", "hot")
            yield writer.commit(txn)

        cluster.sim.run_until_event(cluster.sim.process(write()))
        cluster.sim.run(until=cluster.sim.now + 0.01)

        def read():
            txn = reader.begin()
            yield reader.txn_get(txn, "key:1")
            sent_before = cluster.network.stats.messages_sent
            outcome = yield reader.commit(txn)
            return outcome, \
                cluster.network.stats.messages_sent - sent_before

        outcome, messages = cluster.sim.run_until_event(
            cluster.sim.process(read()))
        assert outcome == COMMITTED
        assert messages > 0, "fresh read must validate remotely"
        assert reader.local_validation_successes == 0
        assert reader.local_validation_attempts == 1

    def test_dissemination_advances_watermark(self):
        cluster, board = centiman_cluster(dissemination_every=3)
        client = cluster.clients[0]
        start_watermark = board.watermark

        def work():
            for i in range(6):
                txn = client.begin()
                yield client.txn_get(txn, f"key:{i}")
                client.put(txn, f"key:{i}", i)
                yield client.commit(txn)
                yield cluster.sim.timeout(1e-3)

        cluster.sim.run_until_event(cluster.sim.process(work()))
        # The other client never posts beyond its seed, so the watermark
        # is held at that seed even though this client advanced.
        assert board._posted[client.client_id] > start_watermark

    def test_read_write_always_remote(self):
        cluster, board = centiman_cluster()
        client = cluster.clients[0]

        def work():
            txn = client.begin()
            yield client.txn_get(txn, "key:2")
            client.put(txn, "key:2", "new")
            outcome = yield client.commit(txn)
            return outcome

        outcome = cluster.sim.run_until_event(
            cluster.sim.process(work()))
        assert outcome == COMMITTED
        assert client.stats.remote_validations == 1


class TestRemoteValidationClient:
    def test_read_only_validates_remotely(self):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=1, num_clients=1,
            backend="dram", populate_keys=10, seed=29,
            local_validation=False))
        client = cluster.clients[0]
        assert client.local_validation is False

        def work():
            txn = client.begin()
            yield client.txn_get(txn, "key:0")
            sent_before = cluster.network.stats.messages_sent
            outcome = yield client.commit(txn)
            return outcome, \
                cluster.network.stats.messages_sent - sent_before

        outcome, messages = cluster.sim.run_until_event(
            cluster.sim.process(work()))
        assert outcome == COMMITTED
        assert messages > 0
