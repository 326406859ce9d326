"""Failure handling tests: Algorithm 2 recovery, CTP, and leases (§4.5)."""

import pytest

from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import (
    ABORTED,
    COMMITTED,
    PREPARED,
    LeaseManager,
    RecoveryError,
    TransactionRecord,
    merge_records,
    recover_primary,
)
from repro.wire import TxnRecordWire


def make_cluster(**overrides):
    defaults = dict(num_shards=1, replicas_per_shard=3, num_clients=2,
                    backend="dram", clock_preset="perfect", seed=9,
                    populate_keys=16)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def run(cluster, process):
    return cluster.sim.run_until_event(process)


def wire(txn_id, status, writes=(), participants=("shard0",),
         ts_commit=5.0, client_id=1):
    return TxnRecordWire.from_record(TransactionRecord(
        txn_id=txn_id, client_id=client_id, client_name="c",
        ts_commit=ts_commit, reads=[], writes=list(writes),
        participants=list(participants), status=status))


class TestMergeRecords:
    def test_committed_beats_prepared(self):
        merged = merge_records([
            [wire("t1", PREPARED)],
            [wire("t1", COMMITTED)],
        ])
        assert merged["t1"].status == COMMITTED

    def test_aborted_beats_prepared(self):
        merged = merge_records([
            [wire("t1", ABORTED)],
            [wire("t1", PREPARED)],
        ])
        assert merged["t1"].status == ABORTED

    def test_union_of_disjoint_logs(self):
        merged = merge_records([
            [wire("t1", COMMITTED)],
            [wire("t2", PREPARED)],
        ])
        assert set(merged) == {"t1", "t2"}

    def test_order_of_logs_irrelevant(self):
        logs = [[wire("t1", COMMITTED)], [wire("t1", PREPARED)]]
        a = merge_records(logs)
        b = merge_records(list(reversed(logs)))
        assert a["t1"].status == b["t1"].status == COMMITTED


class TestPrimaryFailover:
    def _commit_some(self, cluster, client, n=5):
        def work():
            for i in range(n):
                txn = client.begin()
                yield client.txn_get(txn, f"key:{i}")
                client.put(txn, f"key:{i}", f"gen2-{i}")
                outcome = yield client.commit(txn)
                assert outcome == COMMITTED
                yield cluster.sim.timeout(1e-3)
        run(cluster, cluster.sim.process(work()))
        cluster.sim.run(until=cluster.sim.now + 5e-3)

    def test_failover_preserves_committed_data(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        self._commit_some(cluster, client)

        cluster.pause_server("srv-0-0")
        cluster.directory.promote("shard0", "srv-0-1")
        new_primary = cluster.servers["srv-0-1"]
        run(cluster, recover_primary(new_primary, lease_wait=20e-3))

        def check():
            values = []
            for i in range(5):
                txn = client.begin()
                value = yield client.txn_get(txn, f"key:{i}")
                yield client.commit(txn)
                values.append(value)
            return values

        values = run(cluster, cluster.sim.process(check()))
        assert values == [f"gen2-{i}" for i in range(5)]

    def test_new_primary_rejects_until_lease_passes(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        self._commit_some(cluster, client, n=1)
        cluster.pause_server("srv-0-0")
        cluster.directory.promote("shard0", "srv-0-1")
        recovery = recover_primary(
            cluster.servers["srv-0-1"], lease_wait=50e-3)
        # Transactions during the lease window abort (server refuses).
        outcomes = []

        def during_recovery():
            yield cluster.sim.timeout(5e-3)
            txn = client.begin()
            try:
                yield client.txn_get(txn, "key:0")
                outcomes.append((yield client.commit(txn)))
            except Exception:
                client.abort(txn, "server recovering")
                outcomes.append("REFUSED")

        proc = cluster.sim.process(during_recovery())
        run(cluster, proc)
        assert outcomes == ["REFUSED"]
        run(cluster, recovery)

        def after():
            txn = client.begin()
            value = yield client.txn_get(txn, "key:0")
            yield client.commit(txn)
            return value

        assert run(cluster, cluster.sim.process(after())) == "gen2-0"

    def test_recovery_fails_without_majority(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        self._commit_some(cluster, client, n=1)
        cluster.pause_server("srv-0-0")
        cluster.pause_server("srv-0-2")
        cluster.directory.promote("shard0", "srv-0-1")

        def attempt():
            try:
                yield recover_primary(cluster.servers["srv-0-1"],
                                      lease_wait=1e-3)
            except RecoveryError as exc:
                return str(exc)

        result = run(cluster, cluster.sim.process(attempt()))
        assert "majority" in result

    def test_single_shard_prepared_txn_commits_on_recovery(self):
        """A prepared single-participant transaction must commit during
        the merge (Algorithm 2 line 6-7)."""
        cluster = make_cluster()
        client = cluster.clients[0]

        # Manufacture a prepared-but-undecided txn by injecting the
        # prepare records directly (as if the client died mid-2PC).
        record = TransactionRecord(
            txn_id="orphan", client_id=9, client_name="ghost",
            ts_commit=cluster.sim.now + 1e-3, reads=[],
            writes=[("key:0", "orphan-write")], participants=["shard0"],
            status=PREPARED)
        for name in ("srv-0-0", "srv-0-1", "srv-0-2"):
            cluster.servers[name].txn_table["orphan"] = \
                TxnRecordWire.from_record(record).to_record()

        cluster.pause_server("srv-0-0")
        cluster.directory.promote("shard0", "srv-0-2")
        run(cluster, recover_primary(cluster.servers["srv-0-2"],
                                     lease_wait=10e-3))
        assert cluster.servers["srv-0-2"].txn_table["orphan"].status == \
            COMMITTED

        def check():
            txn = client.begin()
            value = yield client.txn_get(txn, "key:0")
            yield client.commit(txn)
            return value

        assert run(cluster, cluster.sim.process(check())) == "orphan-write"

    def test_multi_shard_prepared_commits_when_other_committed(self):
        cluster = make_cluster(num_shards=2, populate_keys=30)
        key0 = next(k for k in cluster.populated_keys
                    if cluster.directory.shard_of(k).name == "shard0")

        record = TransactionRecord(
            txn_id="xshard", client_id=9, client_name="ghost",
            ts_commit=cluster.sim.now + 1.0, reads=[],
            writes=[(key0, "xshard-write")],
            participants=["shard0", "shard1"], status=PREPARED)
        for replica in cluster.directory.shard("shard0").replicas:
            cluster.servers[replica].txn_table["xshard"] = \
                TxnRecordWire.from_record(record).to_record()
        # shard1's primary saw the commit decision.
        other = TxnRecordWire.from_record(record).to_record()
        other.writes = []
        other.status = COMMITTED
        shard1_primary = cluster.directory.shard("shard1").primary
        cluster.servers[shard1_primary].txn_table["xshard"] = other

        cluster.pause_server("srv-0-0")
        cluster.directory.promote("shard0", "srv-0-1")
        run(cluster, recover_primary(cluster.servers["srv-0-1"],
                                     lease_wait=10e-3))
        assert cluster.servers["srv-0-1"].txn_table["xshard"].status == \
            COMMITTED

    def test_multi_shard_prepared_aborts_when_other_unknown(self):
        cluster = make_cluster(num_shards=2, populate_keys=30)
        key0 = next(k for k in cluster.populated_keys
                    if cluster.directory.shard_of(k).name == "shard0")
        record = TransactionRecord(
            txn_id="never-prepared-elsewhere", client_id=9,
            client_name="ghost", ts_commit=cluster.sim.now + 1.0,
            reads=[], writes=[(key0, "should-not-land")],
            participants=["shard0", "shard1"], status=PREPARED)
        for replica in cluster.directory.shard("shard0").replicas:
            cluster.servers[replica].txn_table[record.txn_id] = \
                TxnRecordWire.from_record(record).to_record()

        cluster.pause_server("srv-0-0")
        cluster.directory.promote("shard0", "srv-0-1")
        run(cluster, recover_primary(cluster.servers["srv-0-1"],
                                     lease_wait=10e-3))
        assert cluster.servers["srv-0-1"].txn_table[record.txn_id].status \
            == ABORTED
        client = cluster.clients[0]

        def check():
            txn = client.begin()
            value = yield client.txn_get(txn, key0)
            yield client.commit(txn)
            return value

        assert run(cluster, cluster.sim.process(check())) != \
            "should-not-land"


class TestDecideLostMidPartition:
    """Satellite of the nemesis PR: the coordinator's decide was lost in
    a partition; the healed shard must resolve its in-doubt records
    without losing the committed transaction."""

    def _seed_in_doubt_commit(self, cluster):
        """Shard1 learned COMMITTED (and applied the write); shard0's
        replicas all hold PREPARED — exactly what a decide lost on the
        wire leaves behind."""
        key0 = next(k for k in cluster.populated_keys
                    if cluster.directory.shard_of(k).name == "shard0")
        key1 = next(k for k in cluster.populated_keys
                    if cluster.directory.shard_of(k).name == "shard1")
        ts = cluster.sim.now + 1e-3
        record = TransactionRecord(
            txn_id="in-doubt", client_id=9, client_name="ghost",
            ts_commit=ts, reads=[], writes=[(key0, "survives")],
            participants=["shard0", "shard1"], status=PREPARED,
            prepared_at=cluster.sim.now)
        for replica in cluster.directory.shard("shard0").replicas:
            server = cluster.servers[replica]
            server.txn_table["in-doubt"] = \
                TxnRecordWire.from_record(record).to_record()
        primary0 = cluster.directory.shard("shard0").primary
        cluster.servers[primary0].key_states.mark_prepared(
            key0, "in-doubt", ts)
        other = TxnRecordWire.from_record(record).to_record()
        other.writes = [(key1, "survives-too")]
        other.status = COMMITTED
        primary1 = cluster.directory.shard("shard1").primary
        cluster.servers[primary1].txn_table["in-doubt"] = other
        return key0

    def test_healed_primary_resolves_in_doubt_without_losing_commit(self):
        """The shard0 primary dies during the partition; its successor
        cannot reach shard1 while recovering, so the record stays
        in-doubt — then the partition heals and CTP must commit it."""
        cluster = make_cluster(num_shards=2, populate_keys=30,
                               ctp_timeout=20e-3)
        key0 = self._seed_in_doubt_commit(cluster)

        cluster.pause_server("srv-0-0")
        cluster.directory.promote("shard0", "srv-0-1")
        new_primary = cluster.servers["srv-0-1"]
        faults = cluster.network.install_faults()
        primary1 = cluster.directory.shard("shard1").primary
        faults.partition(["srv-0-1"], [primary1])
        run(cluster, recover_primary(new_primary, lease_wait=10e-3))
        # Unreachable peer: recovery must keep it PREPARED, not guess.
        assert new_primary.txn_table["in-doubt"].status == PREPARED

        faults.heal()
        cluster.sim.run(until=cluster.sim.now + 0.2)
        assert new_primary.txn_table["in-doubt"].status == COMMITTED
        assert new_primary.key_states.peek(key0).prepared is None

        client = cluster.clients[0]

        def check():
            txn = client.begin()
            value = yield client.txn_get(txn, key0)
            yield client.commit(txn)
            return value

        assert run(cluster, cluster.sim.process(check())) == "survives"

    def test_recovery_propagates_decision_to_other_participant(self):
        """Algorithm 2's all-prepared branch commits; with reliable
        decide delivery the other participant's primary must end up
        COMMITTED too, not stranded PREPARED behind a lost oneway."""
        cluster = make_cluster(num_shards=2, populate_keys=30)
        key0 = next(k for k in cluster.populated_keys
                    if cluster.directory.shard_of(k).name == "shard0")
        key1 = next(k for k in cluster.populated_keys
                    if cluster.directory.shard_of(k).name == "shard1")
        ts = cluster.sim.now + 1e-3
        record = TransactionRecord(
            txn_id="outstanding", client_id=9, client_name="ghost",
            ts_commit=ts, reads=[],
            writes=[(key0, "w0")],
            participants=["shard0", "shard1"], status=PREPARED,
            prepared_at=cluster.sim.now)
        for replica in cluster.directory.shard("shard0").replicas:
            cluster.servers[replica].txn_table["outstanding"] = \
                TxnRecordWire.from_record(record).to_record()
        peer = TxnRecordWire.from_record(record).to_record()
        peer.writes = [(key1, "w1")]
        primary1 = cluster.directory.shard("shard1").primary
        server1 = cluster.servers[primary1]
        server1.txn_table["outstanding"] = peer
        server1.key_states.mark_prepared(key1, "outstanding", ts)

        cluster.pause_server("srv-0-0")
        cluster.directory.promote("shard0", "srv-0-1")
        run(cluster, recover_primary(cluster.servers["srv-0-1"],
                                     lease_wait=10e-3))
        cluster.sim.run(until=cluster.sim.now + 50e-3)
        assert cluster.servers["srv-0-1"].txn_table[
            "outstanding"].status == COMMITTED
        assert server1.txn_table["outstanding"].status == COMMITTED
        assert server1.key_states.peek(key1).prepared is None


class TestCooperativeTermination:
    def test_ctp_commits_orphan_prepared_txn(self):
        """All participants prepared, client vanished: CTP rule 4."""
        cluster = make_cluster(num_shards=2, populate_keys=30,
                               ctp_timeout=20e-3)
        key0 = next(k for k in cluster.populated_keys
                    if cluster.directory.shard_of(k).name == "shard0")
        key1 = next(k for k in cluster.populated_keys
                    if cluster.directory.shard_of(k).name == "shard1")

        ts = cluster.sim.now + 1e-3
        for shard_name, key in (("shard0", key0), ("shard1", key1)):
            record = TransactionRecord(
                txn_id="orphan2", client_id=9, client_name="ghost",
                ts_commit=ts, reads=[], writes=[(key, "ctp-commit")],
                participants=["shard0", "shard1"], status=PREPARED,
                prepared_at=cluster.sim.now)
            primary = cluster.directory.shard(shard_name).primary
            server = cluster.servers[primary]
            server.txn_table["orphan2"] = record
            server.key_states.mark_prepared(key, "orphan2", ts)

        cluster.sim.run(until=cluster.sim.now + 0.2)
        for shard_name in ("shard0", "shard1"):
            primary = cluster.directory.shard(shard_name).primary
            assert cluster.servers[primary].txn_table["orphan2"].status \
                == COMMITTED
        total_resolutions = sum(s.ctp_resolutions
                                for s in cluster.servers.values())
        assert total_resolutions >= 1

    def test_ctp_asks_the_coordinator_first(self):
        """A reachable coordinator's decided ABORTED overrules rule 4:
        CTP's first move is the ``milana.txn_outcome`` query."""
        cluster = make_cluster(ctp_timeout=20e-3)
        client = cluster.clients[0]
        blocked, orphaned = cluster.populated_keys[:2]
        server = cluster.servers[cluster.directory.shard("shard0").primary]
        ts = cluster.sim.now + 1e-3
        server.txn_table["blocker"] = TransactionRecord(
            txn_id="blocker", client_id=9, client_name="ghost",
            ts_commit=ts, reads=[], writes=[(blocked, "blocked")],
            participants=["shard0"], status=PREPARED,
            prepared_at=cluster.sim.now)
        server.key_states.mark_prepared(blocked, "blocker", ts)

        def aborted():
            txn = client.begin()
            yield client.txn_get(txn, blocked)
            client.put(txn, blocked, "mine")
            assert (yield client.commit(txn)) == ABORTED
            return txn.txn_id

        txn_id = run(cluster, cluster.sim.process(aborted()))
        cluster.sim.run(until=cluster.sim.now + 5e-3)
        # The only participant holds the transaction PREPARED, as if its
        # decide were lost: rule 4 alone would commit it.
        ts = cluster.sim.now + 1e-3
        server.txn_table[txn_id] = TransactionRecord(
            txn_id=txn_id, client_id=client.client_id,
            client_name=client.node.name, ts_commit=ts, reads=[],
            writes=[(orphaned, "must-not-commit")], participants=["shard0"],
            status=PREPARED, prepared_at=cluster.sim.now)
        server.key_states.mark_prepared(orphaned, txn_id, ts)

        cluster.sim.run(until=cluster.sim.now + 0.2)
        assert server.txn_table[txn_id].status == ABORTED
        assert server.key_states.peek(orphaned).prepared is None
        assert server.txn_table["blocker"].status == COMMITTED

    def test_ctp_aborts_when_participant_never_prepared(self):
        """Client died between prepares: CTP rule 2."""
        cluster = make_cluster(num_shards=2, populate_keys=30,
                               ctp_timeout=20e-3)
        key0 = next(k for k in cluster.populated_keys
                    if cluster.directory.shard_of(k).name == "shard0")
        ts = cluster.sim.now + 1e-3
        record = TransactionRecord(
            txn_id="half-prepared", client_id=9, client_name="ghost",
            ts_commit=ts, reads=[], writes=[(key0, "half")],
            participants=["shard0", "shard1"], status=PREPARED,
            prepared_at=cluster.sim.now)
        primary = cluster.directory.shard("shard0").primary
        server = cluster.servers[primary]
        server.txn_table["half-prepared"] = record
        server.key_states.mark_prepared(key0, "half-prepared", ts)

        cluster.sim.run(until=cluster.sim.now + 0.2)
        assert server.txn_table["half-prepared"].status == ABORTED
        # The prepared mark is gone, so new transactions can write key0.
        assert server.key_states.peek(key0).prepared is None

    def test_blocked_key_unblocks_after_ctp(self):
        cluster = make_cluster(num_shards=2, populate_keys=30,
                               ctp_timeout=15e-3)
        client = cluster.clients[0]
        key0 = next(k for k in cluster.populated_keys
                    if cluster.directory.shard_of(k).name == "shard0")
        ts = cluster.sim.now + 1e-3
        record = TransactionRecord(
            txn_id="blocker", client_id=9, client_name="ghost",
            ts_commit=ts, reads=[], writes=[(key0, "blocked")],
            participants=["shard0", "shard1"], status=PREPARED,
            prepared_at=cluster.sim.now)
        primary = cluster.directory.shard("shard0").primary
        server = cluster.servers[primary]
        server.txn_table["blocker"] = record
        server.key_states.mark_prepared(key0, "blocker", ts)

        def conflicting():
            txn = client.begin()
            yield client.txn_get(txn, key0)
            client.put(txn, key0, "mine")
            return (yield client.commit(txn))

        # While blocked: abort.
        assert run(cluster, cluster.sim.process(conflicting())) == ABORTED
        # After CTP resolves it: commit.
        cluster.sim.run(until=cluster.sim.now + 0.2)

        def retry():
            txn = client.begin()
            yield client.txn_get(txn, key0)
            client.put(txn, key0, "mine")
            return (yield client.commit(txn))

        assert run(cluster, cluster.sim.process(retry())) == COMMITTED


class TestLeases:
    def test_lease_renewal(self):
        cluster = make_cluster()
        primary = cluster.servers["srv-0-0"]
        manager = LeaseManager(primary, duration=50e-3, interval=10e-3)
        manager.start()
        cluster.sim.run(until=cluster.sim.now + 0.1)
        assert manager.held
        assert manager.renewals >= 5
        for backup_name in ("srv-0-1", "srv-0-2"):
            assert "srv-0-0" in cluster.servers[backup_name].granted_leases

    def test_lease_lost_without_backups(self):
        cluster = make_cluster()
        primary = cluster.servers["srv-0-0"]
        manager = LeaseManager(primary, duration=40e-3, interval=10e-3)
        manager.start()
        cluster.sim.run(until=cluster.sim.now + 0.05)
        assert manager.held
        cluster.pause_server("srv-0-1")
        cluster.pause_server("srv-0-2")
        cluster.sim.run(until=cluster.sim.now + 0.2)
        assert not manager.held
        assert manager.renewal_failures > 0

    def test_invalid_parameters(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            LeaseManager(cluster.servers["srv-0-0"],
                         duration=10e-3, interval=20e-3)

    def test_lapsed_lease_blocks_reads(self):
        """§4.5: a primary serves gets only while it holds the lease.

        With both backups down, renewals fail, the lease lapses, and
        transactional reads are refused until the backups return."""
        cluster = make_cluster()
        client = cluster.clients[0]
        primary = cluster.servers["srv-0-0"]
        manager = LeaseManager(primary, duration=40e-3, interval=10e-3)
        manager.start()
        cluster.sim.run(until=0.05)

        def read_one():
            txn = client.begin()
            try:
                yield client.txn_get(txn, "key:0")
            except Exception as exc:
                client.abort(txn, "lease")
                return f"refused: {exc}"
            yield client.commit(txn)
            return "served"

        assert cluster.sim.run_until_event(
            cluster.sim.process(read_one())) == "served"

        cluster.pause_server("srv-0-1")
        cluster.pause_server("srv-0-2")
        cluster.sim.run(until=cluster.sim.now + 0.2)
        assert not manager.held
        result = cluster.sim.run_until_event(
            cluster.sim.process(read_one()))
        assert result.startswith("refused")

        cluster.unpause_server("srv-0-1")
        cluster.unpause_server("srv-0-2")
        cluster.sim.run(until=cluster.sim.now + 0.1)
        assert manager.held
        assert cluster.sim.run_until_event(
            cluster.sim.process(read_one())) == "served"
