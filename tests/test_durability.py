"""Durability tests: WAL semantics, amnesia crash/restart, nemesis audits.

Three layers, matching the crash model in docs/NEMESIS.md:

* :class:`TestWriteAheadLog` — the simulated log in isolation: fsync
  points, the crash-droppable volatile tail, replay-cost accounting;
* cluster-level crash/restart — volatile state is really wiped, the
  restart protocol really replays the WAL and rejoins via Algorithm 2
  (primary) or catch-up (backup);
* end-to-end nemesis acceptance — the ``crash-restart`` scenario passes
  the post-heal audit with durable logging on, and the ack-before-fsync
  control demonstrably *fails* the same audit (lost acked writes), so
  the audit is known to have teeth.
"""

import pytest

from repro.durability import (
    SEMEL_PUT,
    TXN_RECORD,
    DurabilityConfig,
    WriteAheadLog,
)
from repro.harness import nemesis
from repro.harness.audit import run_audit, sync_replicas
from repro.harness.chaos import NemesisPlan
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.nemesis import nemesis_config, run_nemesis
from repro.milana import (
    COMMITTED,
    DEFAULT_CTP_TIMEOUT,
    DEFAULT_LEASE_DURATION,
    PREPARED,
    TransactionRecord,
)
from repro.milana.client import MilanaClient
from repro.sim import Simulator
from repro.wire import MilanaPrepare, TxnRecordWire


def _drain(generator):
    """Run a no-yield generator to completion and return its value."""
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


def _history_factory(sim, network, directory, clock, client_id,
                     local_validation):
    return MilanaClient(sim, network, directory, clock,
                        client_id=client_id,
                        local_validation=local_validation,
                        record_history=True)


def make_cluster(**overrides):
    defaults = dict(num_shards=1, replicas_per_shard=3, num_clients=2,
                    backend="dram", clock_preset="perfect", seed=9,
                    populate_keys=32, durability=DurabilityConfig(),
                    client_factory=_history_factory)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


class TestWriteAheadLog:
    def _wal(self, **overrides):
        sim = Simulator()
        return sim, WriteAheadLog(sim, "srv", DurabilityConfig(**overrides))

    def test_sync_append_durable_after_fsync(self):
        sim, wal = self._wal()
        proc = sim.process(wal.append(SEMEL_PUT, ("k", "v", (1.0, 1))))
        entry = sim.run_until_event(proc)
        assert entry.durable and not entry.lost
        assert sim.now == pytest.approx(wal.config.fsync_latency)
        assert wal.appends == 1 and wal.fsyncs == 1

    def test_sync_append_survives_crash(self):
        sim, wal = self._wal()
        entry = sim.run_until_event(
            sim.process(wal.append(TXN_RECORD, "decided")))
        wal.crash()
        assert not entry.lost
        assert [e.lsn for e in wal.durable_records()] == [entry.lsn]
        assert wal.crashes == 1 and wal.records_lost == 0

    def test_nosync_tail_lost_on_crash_inside_fsync_window(self):
        sim, wal = self._wal()
        entry = _drain(wal.append(TXN_RECORD, "volatile", sync=False))
        assert not entry.durable  # the caller did not wait for the fsync
        wal.crash()
        assert entry.lost and wal.records_lost == 1
        # The in-flight background fsync must not resurrect the entry.
        sim.run(until=wal.config.fsync_latency * 3)
        assert not entry.durable
        assert wal.durable_records() == []

    def test_nosync_append_survives_once_background_fsync_lands(self):
        sim, wal = self._wal()
        entry = _drain(wal.append(TXN_RECORD, "volatile", sync=False))
        sim.run(until=wal.config.fsync_latency * 2)
        assert entry.durable
        wal.crash()
        assert not entry.lost
        assert [e.lsn for e in wal.durable_records()] == [entry.lsn]

    def test_bootstrap_is_durable_and_free(self):
        sim, wal = self._wal()
        entry = wal.bootstrap_put("k", "v", (0.0, 0))
        assert entry.durable and sim.now == 0.0
        wal.crash()
        assert wal.durable_records() == [entry]

    def test_replay_delay_scales_with_durable_prefix(self):
        sim, wal = self._wal(replay_latency=3e-6)
        for i in range(5):
            wal.bootstrap(SEMEL_PUT, (f"k{i}", i, (0.0, 0)))
        assert wal.replay_delay() == pytest.approx(15e-6)
        assert wal.replay_delay(2) == pytest.approx(6e-6)

    def test_append_txn_snapshots_the_record(self):
        sim, wal = self._wal()
        record = TransactionRecord(
            txn_id="t1", client_id=1, client_name="c", ts_commit=1.0,
            reads=[], writes=[], participants=["shard0"],
            status=PREPARED)
        entry = sim.run_until_event(sim.process(wal.append_txn(record)))
        record.status = COMMITTED  # later mutation must not alias
        assert isinstance(entry.payload, TxnRecordWire)
        assert entry.payload.status == PREPARED


class TestSnapshotSharing:
    """One frozen ``TxnRecordWire`` per state of a record, shared by
    the WAL, replication and backups, never aliasing mutable state."""

    WIRE = TxnRecordWire(
        txn_id="t1", client_id=1, client_name="c", ts_commit=1.0,
        reads=(("a", (0.5, 2)), ("b", None)), writes=(("a", "v"),),
        participants=("shard0", "shard1"), status=PREPARED,
        prepared_at=0.25)

    def test_unchanged_record_keeps_one_snapshot(self):
        record = self.WIRE.to_record()
        assert TxnRecordWire.from_record(record) is self.WIRE
        assert TxnRecordWire.from_record(record) is self.WIRE
        # Thawing twice gives independent records over shared tuples.
        other = self.WIRE.to_record()
        assert other is not record and other == record
        assert other.reads is record.reads is self.WIRE.reads

    def test_status_change_makes_a_new_snapshot_over_the_same_tuples(self):
        record = self.WIRE.to_record()
        record.status = COMMITTED
        decided = TxnRecordWire.from_record(record)
        assert decided is not self.WIRE
        assert (self.WIRE.status, decided.status) == (PREPARED, COMMITTED)
        assert decided.reads is self.WIRE.reads
        assert decided.writes is self.WIRE.writes
        assert decided.participants is self.WIRE.participants
        assert TxnRecordWire.from_record(record) is decided

    def test_prepare_time_change_makes_a_new_snapshot(self):
        record = self.WIRE.to_record()
        record.prepared_at = 0.5
        stamped = TxnRecordWire.from_record(record)
        assert stamped is not self.WIRE
        assert (self.WIRE.prepared_at, stamped.prepared_at) == (0.25, 0.5)

    def test_wal_entry_keeps_the_status_it_was_appended_with(self):
        sim = Simulator()
        wal = WriteAheadLog(sim, "srv", DurabilityConfig())
        record = self.WIRE.to_record()
        before = sim.run_until_event(sim.process(wal.append_txn(record)))
        record.status = COMMITTED
        after = sim.run_until_event(sim.process(wal.append_txn(record)))
        # A received record is logged as the received object itself.
        assert before.payload is self.WIRE
        assert before.payload.status == PREPARED
        assert after.payload.status == COMMITTED

    def test_hand_built_lists_are_frozen_and_never_shared(self):
        reads = [("a", (0.5, 2)), ("b", None)]
        record = TransactionRecord(
            txn_id="t2", client_id=1, client_name="c", ts_commit=1.0,
            reads=reads, writes=[("a", "v")], participants=["shard0"])
        first = TxnRecordWire.from_record(record)
        assert first.reads == (("a", (0.5, 2)), ("b", None))
        assert first.writes == (("a", "v"),)
        assert first.participants == ("shard0",)
        assert hash(first) == hash(TxnRecordWire.from_wire(first.to_wire()))
        # A list can be edited in place, so its snapshot is not reused.
        reads.append(("c", None))
        second = TxnRecordWire.from_record(record)
        assert len(second.reads) == 3 and len(first.reads) == 2


class TestClusterCrashRestart:
    def _commit(self, cluster, client, key, value):
        def work():
            txn = client.begin()
            yield client.txn_get(txn, key)
            client.put(txn, key, value)
            return (yield client.commit(txn))
        outcome = cluster.sim.run_until_event(cluster.sim.process(work()))
        assert outcome == COMMITTED

    def _read(self, cluster, client, key):
        def work():
            txn = client.begin()
            value = yield client.txn_get(txn, key)
            yield client.commit(txn)
            return value
        return cluster.sim.run_until_event(cluster.sim.process(work()))

    def test_primary_crash_restart_round_trip(self):
        """An acked write survives its primary's amnesia crash: WAL
        replay plus Algorithm 2 rebuild the store, and the key is
        served again once the lease wait is over."""
        cluster = make_cluster()
        sim = cluster.sim
        client = cluster.clients[0]
        key = cluster.populated_keys[0]
        self._commit(cluster, client, key, "survivor")

        cluster.crash_server("srv-0-0")
        server = cluster.servers["srv-0-0"]
        assert cluster.server_state("srv-0-0") == "crashed"
        assert server.txn_table == {}  # volatile state wiped

        proc = cluster.restart_server("srv-0-0")
        assert cluster.server_state("srv-0-0") == "recovering"
        sim.run_until_event(proc)
        assert cluster.server_state("srv-0-0") == "up"
        assert server.wal.replays == 1
        sim.run(until=sim.now + DEFAULT_LEASE_DURATION + 50e-3)
        assert self._read(cluster, client, key) == "survivor"

    def test_backup_crash_restart_catches_up(self):
        """A restarted backup pulls decided records and missed versions
        from its primary via milana.catchup."""
        cluster = make_cluster()
        sim = cluster.sim
        client = cluster.clients[0]
        key = cluster.populated_keys[0]
        cluster.crash_server("srv-0-1")
        self._commit(cluster, client, key, "missed-while-down")
        sim.run(until=sim.now + 10e-3)

        proc = cluster.restart_server("srv-0-1")
        sim.run_until_event(proc)
        primary = cluster.servers["srv-0-0"]
        backup = cluster.servers["srv-0-1"]
        assert backup.backend.versions_of(key)
        assert (backup.backend.versions_of(key)[0]
                == primary.backend.versions_of(key)[0])

    def test_pause_keeps_state_crash_wipes_it(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        key = cluster.populated_keys[0]
        self._commit(cluster, client, key, "v1")
        primary = cluster.servers["srv-0-0"]
        assert primary.txn_table

        cluster.pause_server("srv-0-0")
        assert cluster.server_state("srv-0-0") == "paused"
        assert primary.txn_table  # pause = link cut, memory intact
        cluster.unpause_server("srv-0-0")
        assert cluster.server_state("srv-0-0") == "up"
        assert primary.txn_table

        cluster.crash_server("srv-0-0")
        assert not primary.txn_table

    def test_restart_guards(self):
        cluster = make_cluster()
        with pytest.raises(RuntimeError, match="not crashed"):
            cluster.restart_server("srv-0-0")
        cluster.pause_server("srv-0-1")
        with pytest.raises(RuntimeError, match="paused, not crashed"):
            cluster.restart_server("srv-0-1")
        cluster.crash_server("srv-0-2")
        with pytest.raises(RuntimeError, match="amnesia-crashed"):
            cluster.unpause_server("srv-0-2")
        with pytest.raises(RuntimeError, match="amnesia-crashed"):
            cluster.pause_server("srv-0-2")
        cluster.restart_server("srv-0-2")
        with pytest.raises(RuntimeError, match="already restarting"):
            cluster.restart_server("srv-0-2")

    def test_crash_without_wal_still_fail_stops(self):
        """Without a durability config the crash semantics are the
        same — there is simply nothing to replay, so the restarted
        server comes back empty and catches up from its shard."""
        cluster = make_cluster(durability=None)
        assert cluster.servers["srv-0-1"].wal is None
        cluster.crash_server("srv-0-1")
        proc = cluster.restart_server("srv-0-1")
        cluster.sim.run_until_event(proc)
        assert cluster.server_state("srv-0-1") == "up"


#: Who dies, and at which CTP phase boundary. Participant placements
#: bracket the prepare and decide log points on a shard primary
#: (before any prepare is logged / PREPARED logged but decide not yet /
#: decide logged); the coordinator placement silences the client after
#: a participant logged PREPARED but before the decide could be sent,
#: leaving the transaction in-doubt for CTP to terminate.
CRASH_PLACEMENTS = (
    "participant-before-prepare",
    "participant-on-prepared",
    "participant-on-committed",
    "coordinator-on-prepared",
)


class TestCrashPlacement:
    """Satellite: parametrized crash points at CTP phase boundaries.

    A monitor process watches the victim primary's transaction table and
    injects the fault at the requested phase; after restart plus a
    settle past the lease horizon and several CTP rounds, the full audit
    must pass — no acked commit lost, nothing stuck PREPARED."""

    @pytest.mark.parametrize("placement", CRASH_PLACEMENTS)
    def test_crash_at_phase_boundary(self, placement):
        config = ClusterConfig(
            num_shards=2, replicas_per_shard=3, num_clients=2,
            backend="dram", clock_preset="perfect", seed=11,
            populate_keys=64, ctp_timeout=DEFAULT_CTP_TIMEOUT,
            durability=DurabilityConfig(),
            client_factory=_history_factory)
        cluster = Cluster(config)
        sim = cluster.sim
        victim = cluster.directory.shard("shard1").primary
        server = cluster.servers[victim]

        by_shard = {}
        for key in cluster.populated_keys:
            by_shard.setdefault(cluster.directory.shard_of(key).name, key)
        key0, key1 = by_shard["shard0"], by_shard["shard1"]

        coordinator = cluster.clients[0]
        coordinator_node = f"milana-client-{coordinator.client_id}"
        crash_time = []

        def inject():
            if placement == "coordinator-on-prepared":
                cluster.network.crash(coordinator_node)
            else:
                cluster.crash_server(victim)
            crash_time.append(sim.now)

        def phase_reached():
            if placement == "coordinator-on-prepared":
                # One of the coordinator's own transactions is prepared
                # on the participant; its decide is now at risk.
                return any(rec.status == PREPARED
                           and rec.client_id == coordinator.client_id
                           for rec in server.txn_table.values())
            want = (PREPARED if placement == "participant-on-prepared"
                    else COMMITTED)
            return any(rec.status == want
                       for rec in server.txn_table.values())

        def monitor():
            if placement == "participant-before-prepare":
                yield sim.timeout(5e-3)
            else:
                while sim.now < 0.2 and not phase_reached():
                    yield sim.timeout(20e-6)
                if sim.now >= 0.2:
                    return  # never reached the phase; asserted below
            inject()

        def work(client, offset):
            # Long enough to outlast crash + restart + lease wait
            # (~150 ms), so commits land on both sides of the fault.
            committed = 0
            yield sim.timeout(offset)
            for i in range(120):
                txn = client.begin()
                try:
                    yield client.txn_get(txn, key0)
                    yield client.txn_get(txn, key1)
                    client.put(txn, key0, f"c{client.client_id}-{i}-a")
                    client.put(txn, key1, f"c{client.client_id}-{i}-b")
                    outcome = yield client.commit(txn)
                except Exception:
                    try:
                        client.abort(txn, "fault")
                    except Exception:
                        pass
                    outcome = None
                if outcome == COMMITTED:
                    committed += 1
                yield sim.timeout(2e-3)
            return committed

        def restarter():
            while not crash_time and sim.now < 0.25:
                yield sim.timeout(1e-3)
            if not crash_time:
                return None
            yield sim.timeout(30e-3)
            if placement == "coordinator-on-prepared":
                cluster.network.recover(coordinator_node)
            else:
                yield cluster.restart_server(victim)
            return sim.now

        mon = sim.process(monitor())
        restart = sim.process(restarter())
        procs = [sim.process(work(client, 1e-3 * index))
                 for index, client in enumerate(cluster.clients)]
        for proc in procs:
            sim.run_until_event(proc)
        sim.run_until_event(restart)
        assert not mon.is_alive
        assert crash_time, f"{placement}: crash point never reached"
        assert cluster.server_state(victim) == "up"
        if placement.startswith("participant"):
            assert server.wal.replays >= 1

        sim.run(until=sim.now + DEFAULT_LEASE_DURATION
                + 3 * DEFAULT_CTP_TIMEOUT + 50e-3)
        sim.run_until_event(sync_replicas(cluster))
        sim.run(until=sim.now + 20e-3)
        report = run_audit(cluster)
        assert report.passed, f"{placement}:\n{report.summary()}"
        assert report.committed_txns > 0


class TestBackgroundAppendFailure:
    """The fire-and-forget abort-path append must not be able to kill
    the simulation: nothing ever waits on the spawned process, so an
    unhandled failure inside it would propagate straight out of
    ``Simulator.run``. The server defuses it and counts it on the
    node's ``handler_errors`` instead."""

    @staticmethod
    def _prepare(txn_id, key, value, ts_commit):
        return MilanaPrepare(record=TxnRecordWire(
            txn_id=txn_id, client_id=9, client_name="tester",
            ts_commit=ts_commit, reads=(), writes=((key, value),),
            participants=("shard0",), status=PREPARED, prepared_at=0.0))

    def test_failed_abort_path_append_is_counted_not_fatal(self):
        cluster = make_cluster()
        sim = cluster.sim
        client = cluster.clients[0]
        server = cluster.servers["srv-0-0"]
        real_append = server.wal.append_txn

        def flaky_append(record, sync=True):
            if sync is not False:
                return real_append(record, sync=sync)

            def boom():
                raise RuntimeError("disk full")
                yield  # pragma: no cover - generator shape only

            return boom()

        server.wal.append_txn = flaky_append
        # Block key:0, then a conflicting prepare takes the validation
        # failure path: ABORT vote plus the background sync=False append.
        sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare",
            self._prepare("blocker", "key:0", "x", sim.now + 1e-3)))
        before = server.node.handler_errors
        reply = sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare",
            self._prepare("loser", "key:0", "y", sim.now + 2e-3)))
        assert reply.vote == "ABORT"
        # Pre-fix, the RuntimeError escapes Simulator.run before this
        # point; post-fix it lands on the handler error counter.
        sim.run(until=sim.now + 0.1)
        assert server.node.handler_errors == before + 1

    def test_healthy_abort_path_append_stays_quiet(self):
        cluster = make_cluster()
        sim = cluster.sim
        client = cluster.clients[0]
        server = cluster.servers["srv-0-0"]
        sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare",
            self._prepare("blocker", "key:0", "x", sim.now + 1e-3)))
        reply = sim.run_until_event(client.node.call(
            "srv-0-0", "milana.prepare",
            self._prepare("loser", "key:0", "y", sim.now + 2e-3)))
        assert reply.vote == "ABORT"
        sim.run(until=sim.now + 0.1)
        assert server.node.handler_errors == 0
        # The aborted record became durable once its fsync landed.
        assert any(entry.kind == TXN_RECORD
                   and entry.payload.txn_id == "loser"
                   for entry in server.wal.durable_records())


def _shard_wipe(cluster, rng, start, duration):
    """Whole-shard amnesia crash with staggered restarts: every replica
    of shard0 loses its memory at once, so recovery can only come from
    the WALs. The deliberately lossy control (ack-before-fsync, slow
    fsyncs) must lose acked writes here."""
    plan = NemesisPlan(cluster, name="shard-wipe")
    shard = cluster.directory.shard("shard0")
    for index, node in enumerate(sorted(shard.replicas)):
        plan.crash(start, node)
        plan.restart(start + duration * (0.5 + 0.1 * index), node)
    return plan


class TestNemesisAcceptance:
    def test_crash_restart_scenario_passes_audit(self):
        """The PR's acceptance run: seeded crash of a shard primary
        mid-workload recovers through WAL replay + Algorithm 2 and the
        post-heal audit holds."""
        result = run_nemesis("crash-restart")
        assert result.passed, result.summary()
        assert result.metrics.committed > 0
        primary = result.cluster.directory.shard("shard0").primary
        assert result.cluster.servers[primary].wal.replays >= 1
        assert not result.audit.lost_writes
        assert not result.audit.stuck_prepared

    def test_whole_shard_wipe_durable_vs_lossy_control(self, monkeypatch):
        """The A/B that proves the audit has teeth: the same whole-shard
        wipe passes with honest ack-after-fsync WALs and fails with the
        ack-before-fsync control (acked writes vanish)."""
        monkeypatch.setattr(
            nemesis, "SCENARIOS",
            nemesis.SCENARIOS + (nemesis.Scenario("shard-wipe",
                                                  _shard_wipe),))
        durable = run_nemesis("shard-wipe")
        assert durable.passed, durable.summary()

        lossy = DurabilityConfig(
            sync_prepares=False, sync_decides=False,
            sync_semel=False, fsync_latency=20e-3)
        control = run_nemesis(
            "shard-wipe", config=nemesis_config(durability=lossy))
        assert not control.passed, (
            "ack-before-fsync control unexpectedly passed the "
            "audit:\n" + control.summary())
        assert control.audit.lost_writes
