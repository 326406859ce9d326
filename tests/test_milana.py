"""Tests for the MILANA transaction layer: OCC, 2PC, local validation."""


from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import (
    ABORTED,
    COMMITTED,
    KeyStateTable,
    PREPARED,
    TransactionRecord,
    validate,
)
from repro.net import AppError
from repro.sim.core import Simulator
from repro.versioning import Version
from repro.wire import MilanaDecide


def make_cluster(**overrides):
    defaults = dict(num_shards=1, replicas_per_shard=3, num_clients=2,
                    backend="dram", clock_preset="perfect", seed=5,
                    populate_keys=16)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def run(cluster, process):
    return cluster.sim.run_until_event(process)


class TestValidationAlgorithm:
    """Algorithm 1 unit tests against a bare key-state table."""

    def _record(self, reads=(), writes=(), ts_commit=10.0, txn="t1"):
        return TransactionRecord(
            txn_id=txn, client_id=1, client_name="c1",
            ts_commit=ts_commit, reads=list(reads), writes=list(writes),
            participants=["shard0"])

    def test_empty_transaction_validates(self):
        table = KeyStateTable(Simulator(), "srv-0-0")
        assert validate(self._record(), table).ok

    def test_read_of_unchanged_key_validates(self):
        table = KeyStateTable(Simulator(), "srv-0-0")
        table.mark_committed("k", Version(5.0, 1))
        record = self._record(reads=[("k", (5.0, 1))])
        assert validate(record, table).ok

    def test_read_of_changed_key_aborts(self):
        table = KeyStateTable(Simulator(), "srv-0-0")
        table.mark_committed("k", Version(7.0, 2))
        record = self._record(reads=[("k", (5.0, 1))])
        result = validate(record, table)
        assert not result.ok
        assert "changed" in result.reason

    def test_read_of_prepared_key_aborts(self):
        table = KeyStateTable(Simulator(), "srv-0-0")
        table.mark_committed("k", Version(5.0, 1))
        table.mark_prepared("k", "other-txn", 9.0)
        record = self._record(reads=[("k", (5.0, 1))])
        assert not validate(record, table).ok

    def test_missing_key_read_validates_when_still_missing(self):
        table = KeyStateTable(Simulator(), "srv-0-0")
        record = self._record(reads=[("k", None)])
        assert validate(record, table).ok

    def test_missing_key_read_aborts_when_created(self):
        table = KeyStateTable(Simulator(), "srv-0-0")
        table.mark_committed("k", Version(5.0, 1))
        record = self._record(reads=[("k", None)])
        assert not validate(record, table).ok

    def test_write_over_prepared_key_aborts(self):
        table = KeyStateTable(Simulator(), "srv-0-0")
        table.mark_prepared("k", "other-txn", 9.0)
        record = self._record(writes=[("k", "v")])
        assert not validate(record, table).ok

    def test_write_behind_latest_read_aborts(self):
        """The rule enabling local validation: a late-arriving commit
        below an already-served read timestamp must abort."""
        table = KeyStateTable(Simulator(), "srv-0-0")
        table.observe_read("k", 12.0)
        record = self._record(writes=[("k", "v")], ts_commit=10.0)
        result = validate(record, table)
        assert not result.ok
        assert "read at" in result.reason

    def test_write_behind_latest_committed_aborts(self):
        table = KeyStateTable(Simulator(), "srv-0-0")
        table.mark_committed("k", Version(11.0, 1))
        record = self._record(writes=[("k", "v")], ts_commit=10.0)
        assert not validate(record, table).ok

    def test_write_ahead_of_everything_validates(self):
        table = KeyStateTable(Simulator(), "srv-0-0")
        table.mark_committed("k", Version(5.0, 1))
        table.observe_read("k", 6.0)
        record = self._record(reads=[("k", (5.0, 1))],
                              writes=[("k", "v")], ts_commit=10.0)
        assert validate(record, table).ok

    def test_clear_prepared_only_for_owner(self):
        table = KeyStateTable(Simulator(), "srv-0-0")
        table.mark_prepared("k", "t1", 5.0)
        table.clear_prepared("k", "t2")
        assert table.peek("k").prepared is not None
        table.clear_prepared("k", "t1")
        assert table.peek("k").prepared is None


class TestBasicTransactions:
    def test_read_write_commit_roundtrip(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        key = cluster.populated_keys[0]

        def work():
            txn = client.begin()
            old = yield client.txn_get(txn, key)
            client.put(txn, key, old + "-updated")
            outcome = yield client.commit(txn)
            return outcome, old

        outcome, old = run(cluster, cluster.sim.process(work()))
        assert outcome == COMMITTED
        assert old == f"value-of-{key}"

        def check():
            txn = client.begin()
            value = yield client.txn_get(txn, key)
            yield client.commit(txn)
            return value

        cluster.sim.run(until=cluster.sim.now + 0.01)
        value = run(cluster, cluster.sim.process(check()))
        assert value == old + "-updated"

    def test_read_only_local_commit_has_no_commit_messages(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        key = cluster.populated_keys[0]

        def work():
            txn = client.begin()
            yield client.txn_get(txn, key)
            sent_before = cluster.network.stats.messages_sent
            outcome = yield client.commit(txn)
            sent_after = cluster.network.stats.messages_sent
            return outcome, sent_after - sent_before

        outcome, messages = run(cluster, cluster.sim.process(work()))
        assert outcome == COMMITTED
        assert messages == 0
        assert client.stats.local_validations == 1

    def test_buffered_writes_invisible_until_commit(self):
        cluster = make_cluster()
        writer, reader = cluster.clients

        def work():
            txn = writer.begin()
            writer.put(txn, "key:0", "dirty")
            own_read = yield writer.txn_get(txn, "key:0")

            other = reader.begin()
            other_read = yield reader.txn_get(other, "key:0")
            yield reader.commit(other)
            writer.abort(txn)
            return own_read, other_read

        own_read, other_read = run(cluster, cluster.sim.process(work()))
        assert own_read == "dirty"           # read-your-writes from buffer
        assert other_read == "value-of-key:0"  # not visible elsewhere

    def test_write_write_conflict_aborts_one(self):
        cluster = make_cluster()
        c1, c2 = cluster.clients

        def work():
            t1 = c1.begin()
            t2 = c2.begin()
            yield c1.txn_get(t1, "key:1")
            yield c2.txn_get(t2, "key:1")
            c1.put(t1, "key:1", "from-c1")
            c2.put(t2, "key:1", "from-c2")
            o1 = yield c1.commit(t1)
            o2 = yield c2.commit(t2)
            return o1, o2

        o1, o2 = run(cluster, cluster.sim.process(work()))
        assert (o1, o2).count(COMMITTED) == 1
        assert (o1, o2).count(ABORTED) == 1

    def test_read_only_sees_consistent_snapshot_across_keys(self):
        """Two keys always updated together: a snapshot read must never
        observe a mixed state."""
        cluster = make_cluster(num_clients=2)
        writer, reader = cluster.clients
        key_a, key_b = "pair:a", "pair:b"

        def seed():
            txn = writer.begin()
            writer.put(txn, key_a, 0)
            writer.put(txn, key_b, 0)
            yield writer.commit(txn)

        run(cluster, cluster.sim.process(seed()))
        observations = []

        def write_loop():
            for i in range(1, 25):
                txn = writer.begin()
                a = yield writer.txn_get(txn, key_a)
                writer.put(txn, key_a, a + 1)
                writer.put(txn, key_b, a + 1)
                yield writer.commit(txn)
                yield cluster.sim.timeout(0.4e-3)

        def read_loop():
            for _ in range(40):
                txn = reader.begin()
                a = yield reader.txn_get(txn, key_a)
                b = yield reader.txn_get(txn, key_b)
                outcome = yield reader.commit(txn)
                if outcome == COMMITTED:
                    observations.append((a, b))
                yield cluster.sim.timeout(0.25e-3)

        wp = cluster.sim.process(write_loop())
        rp = cluster.sim.process(read_loop())
        run(cluster, wp)
        run(cluster, rp)
        assert observations, "no read-only transaction committed"
        for a, b in observations:
            assert a == b, f"torn snapshot: a={a} b={b}"

    def test_multi_shard_transaction_atomic(self):
        cluster = make_cluster(num_shards=3, num_clients=1,
                               populate_keys=60)
        client = cluster.clients[0]
        # Pick keys on distinct shards.
        by_shard = {}
        for key in cluster.populated_keys:
            by_shard.setdefault(
                cluster.directory.shard_of(key).name, key)
        keys = list(by_shard.values())[:3]
        assert len(keys) == 3

        def work():
            txn = client.begin()
            for key in keys:
                yield client.txn_get(txn, key)
            for key in keys:
                client.put(txn, key, "multi")
            outcome = yield client.commit(txn)
            return outcome

        assert run(cluster, cluster.sim.process(work())) == COMMITTED
        cluster.sim.run(until=cluster.sim.now + 0.02)

        def check():
            txn = client.begin()
            values = []
            for key in keys:
                value = yield client.txn_get(txn, key)
                values.append(value)
            yield client.commit(txn)
            return values

        assert run(cluster, cluster.sim.process(check())) == ["multi"] * 3

    def test_abort_discards_buffered_writes(self):
        cluster = make_cluster()
        client = cluster.clients[0]

        def work():
            txn = client.begin()
            client.put(txn, "key:2", "discarded")
            client.abort(txn)
            check = client.begin()
            value = yield client.txn_get(check, "key:2")
            yield client.commit(check)
            return value

        assert run(cluster, cluster.sim.process(work())) == "value-of-key:2"
        assert client.stats.aborted == 1

    def test_remote_validation_mode_for_read_only(self):
        cluster = make_cluster(local_validation=False)
        client = cluster.clients[0]

        def work():
            txn = client.begin()
            yield client.txn_get(txn, "key:0")
            sent_before = cluster.network.stats.messages_sent
            outcome = yield client.commit(txn)
            sent_after = cluster.network.stats.messages_sent
            return outcome, sent_after - sent_before

        outcome, messages = run(cluster, cluster.sim.process(work()))
        assert outcome == COMMITTED
        assert messages > 0
        assert client.stats.remote_validations == 1


class TestLocalValidationCorrectness:
    def test_read_only_aborts_when_prepared_version_pending(self):
        """A read that overlaps an in-doubt (prepared) write must fail
        local validation."""
        cluster = make_cluster(num_clients=2, num_shards=2,
                               populate_keys=40)
        writer, reader = cluster.clients
        # A multi-shard txn so the prepared window is wide: crash the
        # writer mid-2PC by never sending decide... simpler: exploit the
        # prepare round trip as the window.
        keys = cluster.populated_keys[:2]
        outcomes = {}

        def writer_work():
            txn = writer.begin()
            for key in keys:
                yield writer.txn_get(txn, key)
            for key in keys:
                writer.put(txn, key, "new")
            outcomes["writer"] = yield writer.commit(txn)

        def reader_work():
            # Begin after the writer's commit timestamp is assigned but
            # while its writes are still prepared.
            yield cluster.sim.timeout(80e-6)
            txn = reader.begin()
            for key in keys:
                yield reader.txn_get(txn, key)
            outcomes["reader"] = yield reader.commit(txn)

        wp = cluster.sim.process(writer_work())
        rp = cluster.sim.process(reader_work())
        run(cluster, wp)
        run(cluster, rp)
        # The reader either saw a clean snapshot (before prepare landed)
        # and committed, or saw a prepared version and aborted; it must
        # never commit having read only part of the writer's update.
        assert outcomes["reader"] in (COMMITTED, ABORTED)
        if outcomes["reader"] == COMMITTED:
            txn_values = []

            def check():
                txn = reader.begin()
                for key in keys:
                    txn_values.append((yield reader.txn_get(txn, key)))
                yield reader.commit(txn)

            run(cluster, cluster.sim.process(check()))


class SerializationChecker:
    """Thin adapter over :mod:`repro.verify.serializability`."""

    def __init__(self):
        self.txns = []

    def record(self, txn_id, reads, writes, ts_commit):
        from repro.verify import TxnEntry
        self.txns.append(TxnEntry(txn_id=txn_id, reads=dict(reads),
                                  writes=dict(writes), ts=ts_commit))

    def is_serializable(self):
        from repro.verify import check_serializability
        return check_serializability(self.txns)


class TestSerializability:
    def test_history_is_serializable_under_contention(self):
        cluster = make_cluster(num_clients=4, populate_keys=8,
                               clock_preset="ptp-sw")
        checker = SerializationChecker()
        hot_keys = cluster.populated_keys[:4]

        def client_loop(client, n):
            rng = cluster.rng.substream(f"wl{client.client_id}")
            for i in range(n):
                txn = client.begin()
                keys = rng.sample(hot_keys, 2)
                observed = {}
                for key in keys:
                    yield client.txn_get(txn, key)
                    obs = txn.reads[key]
                    observed[key] = (tuple(obs.version)
                                     if obs.version else None)
                client.put(txn, keys[0], f"{client.client_id}-{i}")
                outcome = yield client.commit(txn)
                if outcome == COMMITTED:
                    version = (txn.ts_commit, client.client_id)
                    checker.record(
                        txn.txn_id, observed, {keys[0]: version},
                        txn.ts_commit)
                yield cluster.sim.timeout(0.3e-3)

        procs = [cluster.sim.process(client_loop(c, 30))
                 for c in cluster.clients]
        for proc in procs:
            run(cluster, proc)
        ok, witness = checker.is_serializable()
        assert ok, f"serializability violation: {witness}"
        committed = sum(c.stats.committed for c in cluster.clients)
        assert committed > 20


class TestParallelReads:
    def test_get_many_returns_all_values(self):
        cluster = make_cluster(num_shards=2, populate_keys=30)
        client = cluster.clients[0]

        def work():
            txn = client.begin()
            keys = cluster.populated_keys[:6]
            values = yield client.txn_get_many(txn, keys)
            outcome = yield client.commit(txn)
            return values, outcome

        values, outcome = run(cluster, cluster.sim.process(work()))
        assert outcome == COMMITTED
        assert len(values) == 6
        for key, value in values.items():
            assert value == f"value-of-{key}"

    def test_get_many_is_faster_than_sequential(self):
        def elapsed(parallel):
            cluster = make_cluster(populate_keys=30)
            client = cluster.clients[0]
            keys = cluster.populated_keys[:8]

            def work():
                t0 = cluster.sim.now
                txn = client.begin()
                if parallel:
                    yield client.txn_get_many(txn, keys)
                else:
                    for key in keys:
                        yield client.txn_get(txn, key)
                yield client.commit(txn)
                return cluster.sim.now - t0

            return run(cluster, cluster.sim.process(work()))

        assert elapsed(parallel=True) < elapsed(parallel=False) / 3

    def test_get_many_empty(self):
        cluster = make_cluster()
        client = cluster.clients[0]

        def work():
            txn = client.begin()
            values = yield client.txn_get_many(txn, [])
            yield client.commit(txn)
            return values

        assert run(cluster, cluster.sim.process(work())) == {}

    def test_get_many_snapshot_miss_aborts_once(self):
        """On a single-version store, parallel reads hitting rewritten
        keys raise exactly one TransactionAborted."""
        from repro.milana import TransactionAborted
        cluster = make_cluster(backend="sftl", num_clients=2,
                               populate_keys=10)
        writer, reader = cluster.clients

        def work():
            txn = reader.begin()   # early snapshot
            # Another client overwrites several keys after our begin.
            for i in range(3):
                overwrite = writer.begin()
                yield writer.txn_get(overwrite, f"key:{i}")
                writer.put(overwrite, f"key:{i}", "newer")
                yield writer.commit(overwrite)
            yield cluster.sim.timeout(1e-3)
            try:
                yield reader.txn_get_many(
                    txn, [f"key:{i}" for i in range(3)])
            except TransactionAborted:
                reader.abort(txn, "snapshot-miss")
                return "aborted-once"
            yield reader.commit(txn)
            return "committed"

        result = run(cluster, cluster.sim.process(work()))
        cluster.sim.run(until=cluster.sim.now + 0.05)  # no stray failures
        assert result == "aborted-once"


class TestQuorumLossHardening:
    """A lost replication quorum must surface as a protocol outcome.

    Regression tests for the simlint PRO004/ATM002 findings:
    ``QuorumError`` is *not* an ``RpcError``, so before the fixes it
    sailed past every ``except RpcError`` on the handler chain and
    landed in the RPC layer as an opaque handler error — or killed the
    CTP daemon outright — and ``_run_ctp`` applied outcomes without the
    in-flight guard the decide path uses.
    """

    @staticmethod
    def _prepared_record(cluster, txn_id, key, value="ctp-value"):
        record = TransactionRecord(
            txn_id=txn_id, client_id=99, client_name="departed-client",
            ts_commit=cluster.sim.now, reads=[], writes=[(key, value)],
            participants=["shard0"], status=PREPARED,
            prepared_at=cluster.sim.now)
        primary = cluster.servers["srv-0-0"]
        primary.txn_table[txn_id] = record
        primary.key_states.mark_prepared(key, txn_id, record.ts_commit)
        return record

    def test_prepare_without_quorum_aborts_without_handler_error(self):
        cluster = make_cluster(num_clients=1)
        client = cluster.clients[0]
        key = cluster.populated_keys[0]
        primary = cluster.servers["srv-0-0"]
        cluster.network.crash("srv-0-1")
        cluster.network.crash("srv-0-2")

        def work(tag):
            txn = client.begin()
            old = yield client.txn_get(txn, key)
            client.put(txn, key, f"{old}-{tag}")
            outcome = yield client.commit(txn)
            return outcome

        outcome = run(cluster, cluster.sim.process(work("stalled")))
        assert outcome != COMMITTED
        # The regression: the quorum loss used to escape as a generic
        # handler exception instead of an ABORT vote / AppError.
        assert primary.node.handler_errors == 0
        # The abort cleaned up its prepared marks: after the backups
        # heal, the same key commits again.
        cluster.network.recover("srv-0-1")
        cluster.network.recover("srv-0-2")
        cluster.sim.run(until=cluster.sim.now + 0.05)
        outcome = run(cluster, cluster.sim.process(work("healed")))
        assert outcome == COMMITTED
        assert primary.node.handler_errors == 0

    def test_decide_without_quorum_rejects_then_recovers(self):
        cluster = make_cluster(num_clients=2)
        caller = cluster.clients[1]
        key = cluster.populated_keys[0]
        primary = cluster.servers["srv-0-0"]
        self._prepared_record(cluster, "txn-decide-quorum", key)
        cluster.network.crash("srv-0-1")
        cluster.network.crash("srv-0-2")

        def decide():
            try:
                reply = yield caller.node.call(
                    "srv-0-0", "milana.decide",
                    MilanaDecide(txn_id="txn-decide-quorum",
                                 outcome=COMMITTED),
                    timeout=1.0)
            except AppError as exc:
                return "rejected", str(exc)
            return "ok", reply.status

        kind, detail = run(cluster, cluster.sim.process(decide()))
        assert kind == "rejected"
        assert "not quorum-durable" in detail
        assert primary.node.handler_errors == 0
        # A retransmission after the heal sees the recorded status.
        cluster.network.recover("srv-0-1")
        cluster.network.recover("srv-0-2")
        kind, status = run(cluster, cluster.sim.process(decide()))
        assert (kind, status) == ("ok", COMMITTED)

    def test_ctp_daemon_survives_quorum_loss(self):
        cluster = make_cluster(num_clients=1, ctp_timeout=0.05)
        key1, key2 = cluster.populated_keys[:2]
        record1 = self._prepared_record(cluster, "txn-ctp-1", key1)
        cluster.network.crash("srv-0-1")
        cluster.network.crash("srv-0-2")
        # Several CTP rounds run into QuorumError while replicating the
        # resolution; before the fix the first one killed the daemon.
        cluster.sim.run(until=cluster.sim.now + 0.3)
        assert record1.status == COMMITTED  # resolved locally (rule 4)
        cluster.network.recover("srv-0-1")
        cluster.network.recover("srv-0-2")
        # The daemon is still alive: a second orphaned record, injected
        # after the heal, also gets resolved.
        record2 = self._prepared_record(cluster, "txn-ctp-2", key2)
        cluster.sim.run(until=cluster.sim.now + 0.3)
        assert record2.status == COMMITTED
