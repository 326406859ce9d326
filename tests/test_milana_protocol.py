"""Direct protocol-level tests of the MILANA server handlers:
idempotence, out-of-order replication records, relaxed backup updates."""


from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import ABORTED, COMMITTED, PREPARED, UNKNOWN
from repro.versioning import Version
from repro.wire import (
    MilanaDecide,
    MilanaDecideReply,
    MilanaFetchLog,
    MilanaPrepare,
    MilanaReplicateTxn,
    MilanaTxnStatus,
    TxnRecordWire,
)


def make_cluster(**overrides):
    defaults = dict(num_shards=1, replicas_per_shard=3, num_clients=1,
                    backend="dram", clock_preset="perfect", seed=113,
                    populate_keys=10)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def prepare_record(txn_id, writes, ts_commit, reads=None,
                   participants=("shard0",), status=PREPARED):
    return TxnRecordWire(
        txn_id=txn_id,
        client_id=9,
        client_name="tester",
        ts_commit=ts_commit,
        reads=tuple(reads or ()),
        writes=tuple(writes),
        participants=tuple(participants),
        status=status,
        prepared_at=0.0,
    )


def prepare_request(txn_id, writes, ts_commit, **kwargs):
    return MilanaPrepare(
        record=prepare_record(txn_id, writes, ts_commit, **kwargs))


class TestPrepareIdempotence:
    def test_retransmitted_prepare_repeats_vote(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        sim = cluster.sim
        request = prepare_request("tx-1", [("key:0", "v")],
                                  ts_commit=sim.now + 1e-3)
        first = sim.run_until_event(
            client.node.call("srv-0-0", "milana.prepare", request,
                             timeout=10e-3))
        second = sim.run_until_event(
            client.node.call("srv-0-0", "milana.prepare", request,
                             timeout=10e-3))
        assert first.vote == "SUCCESS"
        assert second.vote == "SUCCESS"
        # Only one prepared record exists.
        assert cluster.servers["srv-0-0"].txn_table["tx-1"].status == \
            PREPARED

    def test_retransmitted_aborted_prepare_repeats_abort(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        sim = cluster.sim
        # Block key:0 with a first prepared transaction.
        sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare",
            prepare_request("blocker", [("key:0", "x")],
                            ts_commit=sim.now + 1e-3), timeout=10e-3))
        conflicting = prepare_request("loser", [("key:0", "y")],
                                      ts_commit=sim.now + 2e-3)
        first = sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare", conflicting, timeout=10e-3))
        second = sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare", conflicting, timeout=10e-3))
        assert first.vote == "ABORT"
        assert second.vote == "ABORT"


class TestDecideHandler:
    def test_decide_unknown_txn_is_noop(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        reply = cluster.sim.run_until_event(client.node.call(
            "srv-0-0", "milana.decide",
            MilanaDecide(txn_id="never-heard-of-it", outcome=COMMITTED),
            timeout=10e-3))
        assert reply == MilanaDecideReply(status=UNKNOWN)

    def test_decide_twice_is_idempotent(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        sim = cluster.sim
        ts = sim.now + 1e-3
        sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare",
            prepare_request("tx-2", [("key:1", "once")], ts), timeout=10e-3))
        for _ in range(2):
            sim.run_until_event(client.node.call(
                "srv-0-0", "milana.decide",
                MilanaDecide(txn_id="tx-2", outcome=COMMITTED), timeout=10e-3))
        server = cluster.servers["srv-0-0"]
        assert server.txn_table["tx-2"].status == COMMITTED
        versions = server.backend.versions_of("key:1")
        assert versions.count(Version(ts, 9)) == 1

    def test_abort_clears_prepared_marks(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        sim = cluster.sim
        ts = sim.now + 1e-3
        sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare",
            prepare_request("tx-3", [("key:2", "nope")], ts), timeout=10e-3))
        server = cluster.servers["srv-0-0"]
        assert server.key_states.peek("key:2").prepared is not None
        sim.run_until_event(client.node.call(
            "srv-0-0", "milana.decide",
            MilanaDecide(txn_id="tx-3", outcome=ABORTED), timeout=10e-3))
        assert server.key_states.peek("key:2").prepared is None
        # The aborted write never reached the store.
        assert Version(ts, 9) not in server.backend.versions_of("key:2")


class TestRelaxedBackupUpdates:
    def test_commit_record_before_prepare_record(self):
        """§3.2 / Figure 5: backups accept records in any order; a
        PREPARED record arriving after COMMITTED must not regress."""
        cluster = make_cluster()
        client = cluster.clients[0]
        sim = cluster.sim
        ts = sim.now + 1e-3
        committed = MilanaReplicateTxn(record=prepare_record(
            "tx-4", [("key:3", "ooo")], ts, status=COMMITTED))
        prepared = MilanaReplicateTxn(record=prepare_record(
            "tx-4", [("key:3", "ooo")], ts))
        backup = "srv-0-1"
        sim.run_until_event(client.node.call(
            backup, "milana.replicate_txn", committed, timeout=10e-3))
        server = cluster.servers[backup]
        assert server.txn_table["tx-4"].status == COMMITTED
        assert Version(ts, 9) in server.backend.versions_of("key:3")
        # The late prepare record must not downgrade the status.
        sim.run_until_event(client.node.call(
            backup, "milana.replicate_txn", prepared, timeout=10e-3))
        assert server.txn_table["tx-4"].status == COMMITTED

    def test_duplicate_commit_records_apply_once(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        sim = cluster.sim
        ts = sim.now + 1e-3
        record = MilanaReplicateTxn(record=prepare_record(
            "tx-5", [("key:4", "dup")], ts, status=COMMITTED))
        backup = "srv-0-1"
        for _ in range(3):
            sim.run_until_event(client.node.call(
                backup, "milana.replicate_txn", record, timeout=10e-3))
        versions = cluster.servers[backup].backend.versions_of("key:4")
        assert versions.count(Version(ts, 9)) == 1


class TestStatusQueries:
    def test_txn_status_lifecycle(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        sim = cluster.sim

        def status(txn_id):
            return sim.run_until_event(client.node.call(
                "srv-0-0", "milana.txn_status",
                MilanaTxnStatus(txn_id=txn_id), timeout=10e-3)).status

        assert status("tx-6") == UNKNOWN
        ts = sim.now + 1e-3
        sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare",
            prepare_request("tx-6", [("key:5", "s")], ts), timeout=10e-3))
        assert status("tx-6") == PREPARED
        sim.run_until_event(client.node.call(
            "srv-0-0", "milana.decide",
            MilanaDecide(txn_id="tx-6", outcome=COMMITTED), timeout=10e-3))
        assert status("tx-6") == COMMITTED

    def test_fetch_log_returns_wire_records(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        sim = cluster.sim
        ts = sim.now + 1e-3
        sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare",
            prepare_request("tx-7", [("key:6", "log")], ts), timeout=10e-3))
        reply = sim.run_until_event(client.node.call(
            "srv-0-0", "milana.fetch_log", MilanaFetchLog(), timeout=10e-3))
        txn_ids = [record.txn_id for record in reply.records]
        assert "tx-7" in txn_ids
        assert all(isinstance(record, TxnRecordWire)
                   for record in reply.records)
