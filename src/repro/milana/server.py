"""MILANA primary/backup server: OCC validation and 2PC participation.

Extends the SEMEL storage server with the transaction API of §4.1:

* ``milana.get`` — snapshot read at the transaction's begin timestamp,
  returning the version **plus the prepared bit** that makes client-local
  validation of read-only transactions possible (§4.3); records the read
  timestamp in ``latest_read``;
* ``milana.prepare`` — Algorithm 1 validation; on success the record
  enters the transaction table, the written keys are marked prepared, and
  the prepare record is replicated (unordered) to f backups before the
  vote returns;
* ``milana.decide`` — commit applies the buffered writes as versions
  stamped ``(ts_commit, client_id)``, updates ``latest_committed``, clears
  the prepared marks, and replicates the decision; abort just clears;
* ``milana.txn_status`` / ``milana.fetch_log`` — the query surface used by
  the Cooperative Termination Protocol and Algorithm 2 recovery;
* ``milana.renew_lease`` — backups grant the read lease of §4.5.

A Cooperative Termination daemon watches the transaction table for
prepared transactions whose coordinator (the client) has gone quiet and
resolves them with the 4-rule CTP of §4.5.

Sanitizer notes: the state Algorithm 1 works on reports its own
accesses to ``sim.tracer`` (repro.sansim), so the handlers below read
like the pseudocode. The transaction table (:class:`TxnTable`) reports
``("txn", server, txn_id)`` and the exclusive single-apply
``("txn-apply", server, txn_id)``, the key states
(:class:`KeyStateTable`) report ``("keystate", server, key)``, and the
in-flight map's entries are locks. The handlers keep only their
``begin_section`` calls and the relaxed ``("store", …)`` write of a put
they waited for. Each report costs one ``sim.tracer`` load when nothing
is attached (a plain Simulator's ``tracer`` is the class attribute
None), and the schedule is untouched.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..durability.wal import SEMEL_DELETE, SEMEL_PUT, TXN_RECORD
from ..ftl.base import KVBackend
from ..net.network import Network
from ..net.rpc import AppError, RpcError
from ..semel.inflight import InflightMap
from ..semel.replication import QuorumError, replicate_to_backups
from ..semel.server import StorageServer
from ..semel.sharding import Directory
from ..sim.core import Simulator
from ..versioning import Version
from ..wire import (
    Ack,
    MilanaCatchup,
    MilanaCatchupReply,
    MilanaDecide,
    MilanaDecideReply,
    MilanaFetchLog,
    MilanaFetchLogReply,
    MilanaGet,
    MilanaGetReply,
    MilanaPrepare,
    MilanaPrepareReply,
    MilanaRenewLease,
    MilanaRenewLeaseReply,
    MilanaReplicateTxn,
    MilanaTxnStatus,
    MilanaTxnStatusReply,
    TxnRecordWire,
)
from .transaction import ABORTED, COMMITTED, PREPARED, UNKNOWN, \
    TransactionRecord, TxnTable
from .validation import KeyStateTable, validate

__all__ = ["MilanaServer", "DEFAULT_CTP_TIMEOUT"]

#: How long a prepared transaction may sit undecided before a participant
#: primary assumes the client failed and runs CTP.
DEFAULT_CTP_TIMEOUT = 50e-3


class MilanaServer(StorageServer):
    """A SEMEL server that also speaks the MILANA transaction protocol."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        directory: Directory,
        name: str,
        shard_name: str,
        backend: KVBackend,
        replication_timeout: float = 10e-3,
        ctp_timeout: Optional[float] = DEFAULT_CTP_TIMEOUT,
    ) -> None:
        super().__init__(sim, network, directory, name, shard_name,
                         backend, replication_timeout)
        #: txn_id -> TransactionRecord; the §4.1 transaction table.
        self.txn_table = TxnTable(sim, name)
        self.key_states = KeyStateTable(sim, name)
        #: Set during failover: reads/prepares rejected until this time.
        self.serving_after = float("-inf")
        self.validation_failures = 0
        self.ctp_resolutions = 0
        #: Backup-granted lease expiries (by primary name), §4.5.
        self.granted_leases: Dict[str, float] = {}
        #: Optional LeaseManager; when attached, transactional reads are
        #: refused while the lease is lapsed (§4.5: a primary serves gets
        #: only under a lease from f backups).
        self.lease_manager = None
        #: txn_id -> completion event for a prepare/decide still being
        #: processed, so a network-duplicated request coalesces with the
        #: original instead of acking early (prepare: before the record
        #: is quorum-durable) or double-applying writes (decide).
        self._inflight_txn_ops = InflightMap(sim, name, "inflight")
        self._register_milana_handlers()
        self.ctp_timeout = ctp_timeout
        #: The CTP daemon's process, kept so an amnesia crash can kill it.
        self._ctp_proc = (sim.process(self._ctp_daemon())
                          if ctp_timeout is not None else None)

    # -- registration -------------------------------------------------------

    def _register_milana_handlers(self) -> None:
        self.node.register("milana.get", self._handle_txn_get)
        self.node.register("milana.prepare", self._handle_prepare)
        self.node.register("milana.decide", self._handle_decide)
        self.node.register("milana.txn_status", self._handle_txn_status)
        self.node.register("milana.fetch_log", self._handle_fetch_log)
        self.node.register("milana.replicate_txn",
                           self._handle_replicate_txn)
        self.node.register("milana.renew_lease", self._handle_renew_lease)
        self.node.register("milana.catchup", self._handle_catchup)

    def _require_serving(self) -> None:
        self._require_primary()
        if self.sim.now < self.serving_after:
            raise AppError(
                f"{self.name} recovering: serving after "
                f"{self.serving_after:.6f}")
        if self.lease_manager is not None and not self.lease_manager.held:
            raise AppError(
                f"{self.name} lease lapsed; cannot serve reads (§4.5)")

    # -- lazy key-state hydration ----------------------------------------------

    def _hydrate_committed(self, key: str) -> None:
        """Infer ``latest_committed`` from stored version stamps.

        Covers pre-populated data and post-failover state: §4.5 notes the
        latest committed version "can be inferred from the version stamps
        included with each write".
        """
        state = self.key_states.get(key)
        if state.latest_committed is None:
            versions = self.backend.versions_of(key)
            if versions:
                state.latest_committed = versions[0]

    # -- transactional reads --------------------------------------------------------

    def _handle_txn_get(self, request: MilanaGet):
        self._require_serving()
        key = request.key
        timestamp = request.timestamp
        self._hydrate_committed(key)
        result = yield self.backend.get(key, max_timestamp=timestamp)
        state = self.key_states.observe_read(key, timestamp)
        prepared_flag = state.prepared_at_or_before(timestamp)
        if result is None:
            # Distinguish "key never existed" from "snapshot unavailable":
            # on a single-version store a key may exist only at a version
            # newer than the snapshot — the reader must abort (Figure 6).
            snapshot_miss = self.backend.contains(key)
            return MilanaGetReply(found=False, prepared=prepared_flag,
                                  snapshot_miss=snapshot_miss)
        version, value = result
        return MilanaGetReply(found=True, version=tuple(version),
                              value=value, prepared=prepared_flag)

    # -- two-phase commit: prepare ------------------------------------------------------

    def _handle_prepare(self, request: MilanaPrepare):
        self._require_serving()
        record = request.record.to_record()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.begin_section("prepare", record.txn_id)
        inflight = self._inflight_txn_ops.get(record.txn_id)
        if inflight is not None:
            # A duplicate of a prepare still replicating: wait for the
            # original so the vote below is only repeated once the record
            # is quorum-durable.
            yield inflight
        existing = self.txn_table.get(record.txn_id)
        if existing is not None:
            # Retransmitted prepare: repeat the recorded vote.
            vote = "SUCCESS" if existing.status in (PREPARED, COMMITTED) \
                else "ABORT"
            return MilanaPrepareReply(vote=vote)
        for key, _ in list(record.reads) + list(record.writes):
            self._hydrate_committed(key)
        result = validate(record, self.key_states)
        if not result.ok:
            self.validation_failures += 1
            record.status = ABORTED
            self.txn_table[record.txn_id] = record
            if self.wal is not None:
                # An ABORT vote claims no durability; log in the
                # background (no yield here: the vote must follow the
                # validation verdict without an interleaving point).
                self._spawn_background_append(
                    self.wal.append_txn(record, sync=False))
            return MilanaPrepareReply(vote="ABORT", reason=result.reason)
        record.status = PREPARED
        record.prepared_at = self.sim.now
        self.txn_table[record.txn_id] = record
        for key, _value in record.writes:
            self.key_states.mark_prepared(key, record.txn_id,
                                          record.ts_commit)
        done = self.sim.event()
        self._inflight_txn_ops[record.txn_id] = done
        try:
            if self.wal is not None:
                # The SUCCESS vote below asserts this prepare record
                # survives this node's crash: fsync before voting.
                yield from self.wal.append_txn(
                    record, sync=self.wal.config.sync_prepares)
            yield from self._replicate_txn_record(record)
        except QuorumError as exc:
            # The prepare record is not quorum-durable, so a SUCCESS
            # vote here could commit a transaction that a recovering
            # coordinator cannot reconstruct. No SUCCESS was ever sent,
            # so aborting locally and voting ABORT is always safe.
            self._apply_abort(record)
            if self.wal is not None:
                yield from self.wal.append_txn(record, sync=False)
            return MilanaPrepareReply(vote="ABORT", reason=str(exc))
        finally:
            # pop, not del: a crash-kill interrupt lands here after the
            # volatile tables were replaced, so the key may be gone.
            self._inflight_txn_ops.pop(record.txn_id, None)
            done.succeed()
        return MilanaPrepareReply(vote="SUCCESS")

    def _spawn_background_append(self, gen):
        """Spawn a fire-and-forget WAL append with its failure routed to
        the node's error counter.

        Nothing ever waits on the spawned process, so without this an
        exception inside the append would be an unhandled failure and
        :meth:`Event._fire` would raise it straight into
        ``Simulator.run``, killing the whole simulation — worse than
        dropping it. Count it on ``handler_errors`` (the same place a
        handler fault lands) and defuse.
        """
        proc = self.sim.process(gen)

        def _observe(event) -> None:
            if event.ok is False:
                event.defused = True
                self.node.handler_errors += 1

        proc.callbacks.append(_observe)
        return proc

    # -- two-phase commit: decide ----------------------------------------------------------

    def _handle_decide(self, request: MilanaDecide):
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.begin_section("decide", request.txn_id)
        inflight = self._inflight_txn_ops.get(request.txn_id)
        if inflight is not None:
            # A duplicate racing the original decide (or a decide racing
            # the prepare's replication): coalesce — the status check
            # below then sees the settled state instead of re-applying.
            yield inflight
        record = self.txn_table.get(request.txn_id)
        outcome = request.outcome
        if record is None:
            # Never saw the prepare (or GC'd): report UNKNOWN so an
            # acked sender can tell "applied" from "nothing to apply".
            yield from ()
            return MilanaDecideReply(status=UNKNOWN)
        if record.status in (COMMITTED, ABORTED):
            yield from ()
            return MilanaDecideReply(status=record.status)
        if outcome not in (COMMITTED, ABORTED):
            raise AppError(f"bad outcome {outcome!r}")
        done = self.sim.event()
        self._inflight_txn_ops[request.txn_id] = done
        try:
            if outcome == COMMITTED:
                yield from self._apply_commit(record)
            else:
                self._apply_abort(record)
                if self.wal is not None:
                    yield from self.wal.append_txn(
                        record, sync=self.wal.config.sync_decides)
                yield from self._replicate_txn_record(record)
        except QuorumError as exc:
            # Not an RpcError, so it would otherwise escape as an opaque
            # handler error. The decision is applied locally but not
            # quorum-durable; reject so the coordinator retries, and the
            # retransmission repeats the recorded status.
            raise AppError(
                f"decide for {request.txn_id} not quorum-durable: "
                f"{exc}") from exc
        finally:
            self._inflight_txn_ops.pop(request.txn_id, None)
            done.succeed()
        return MilanaDecideReply(status=record.status)

    def _apply_commit(self, record: TransactionRecord):
        """Make a prepared transaction's writes visible, then durable.

        Prepared marks clear at *visibility* (the version is readable from
        the engine's write buffer / mapping table) rather than flash
        durability: the decision is already majority-durable via the
        replicated prepare records, so holding the keys blocked for the
        full page-program (packing) time would only manufacture false
        conflicts.
        """
        version = record.commit_version_of
        visibles = []
        puts = []
        for key, value in record.writes:
            visible = self.sim.event()
            visibles.append(visible)
            puts.append(self.backend.put(key, value, version,
                                         visible=visible))
        if visibles:
            yield self.sim.all_of(visibles)
        for key, _value in record.writes:
            self.key_states.mark_committed(key, version)
            self.key_states.clear_prepared(key, record.txn_id)
        record.status = COMMITTED
        self.txn_table.applied(record)
        if puts:
            yield self.sim.all_of(puts)
        if self.wal is not None:
            # The "quorum-durable" claim of the decide ack starts with
            # this primary's own log entry: fsync before acknowledging.
            yield from self.wal.append_txn(
                record, sync=self.wal.config.sync_decides)
        yield from self._replicate_txn_record(record)

    def _apply_abort(self, record: TransactionRecord) -> None:
        for key, _value in record.writes:
            self.key_states.clear_prepared(key, record.txn_id)
        record.status = ABORTED
        self.txn_table.applied(record)

    # -- replication of transaction records --------------------------------------------------

    def _replicate_txn_record(self, record: TransactionRecord):
        backups = self.backups
        need = min(self.quorum_acks, len(backups))
        if need <= 0:
            return
        yield from replicate_to_backups(
            self.node, backups, "milana.replicate_txn",
            MilanaReplicateTxn(record=TxnRecordWire.from_record(record)),
            need, timeout=self.replication_timeout)

    def _handle_replicate_txn(self, request: MilanaReplicateTxn):
        """Backup side: store the record; apply writes once committed.

        Records may arrive in any order (prepare after commit, commits
        out of timestamp order) — §3.2's relaxed backup updates. Status
        only ever moves forward (PREPARED -> COMMITTED/ABORTED).
        """
        record = request.record.to_record()
        existing = self.txn_table.get(record.txn_id)
        if existing is not None and existing.status in (COMMITTED, ABORTED):
            yield from ()
            return Ack()
        self.txn_table[record.txn_id] = record
        if self.wal is not None:
            # This Ack is the backup's contribution to the primary's
            # durability quorum: the record must survive our own crash.
            sync = (self.wal.config.sync_prepares
                    if record.status == PREPARED
                    else self.wal.config.sync_decides)
            yield from self.wal.append_txn(record, sync=sync)
        if record.status == COMMITTED:
            version = record.commit_version_of
            for key, value in record.writes:
                if version not in self.backend.versions_of(key):
                    yield self.backend.put(key, value, version)
                    tracer = self.sim.tracer
                    if tracer is not None:
                        # Versioned MVCC stores tolerate concurrent puts
                        # by design; record the edge, never flag it.
                        tracer.on_write(("store", self.name, key),
                                        relaxed=True)
        return Ack()

    # -- status queries (CTP / recovery) ------------------------------------------------------

    def _handle_txn_status(self, request: MilanaTxnStatus):
        record = self.txn_table.get(request.txn_id)
        yield from ()
        if record is None:
            return MilanaTxnStatusReply(status=UNKNOWN)
        return MilanaTxnStatusReply(status=record.status)

    def _handle_fetch_log(self, request: MilanaFetchLog):
        yield from ()
        return MilanaFetchLogReply(records=tuple(
            TxnRecordWire.from_record(record)
            for record in self.txn_table.values()))

    # -- crash / restart (amnesia fail-stop) -------------------------------

    def crash(self) -> None:
        """Amnesia: kill the node's processes (including the CTP daemon
        and lease renewals) and wipe every volatile table. Only the
        WAL's durable prefix survives to :meth:`replay_wal`."""
        super().crash()
        if self._ctp_proc is not None and self._ctp_proc.is_alive:
            self._ctp_proc.interrupt("crash")
        self._ctp_proc = None
        self.txn_table = TxnTable(self.sim, self.name)
        self.key_states = KeyStateTable(self.sim, self.name)
        # Nothing serves until recovery says so (primaries re-enter via
        # Algorithm 2; backups never consult serving_after).
        self.serving_after = float("inf")
        self.granted_leases = {}
        self._inflight_txn_ops = InflightMap(self.sim, self.name, "inflight")
        if self.lease_manager is not None:
            self.lease_manager.crash()

    def restart(self, backend: KVBackend) -> None:
        super().restart(backend)
        if self.ctp_timeout is not None:
            self._ctp_proc = self.sim.process(self._ctp_daemon())
        if self.lease_manager is not None:
            self.lease_manager.restart()

    def replay_wal(self):
        """Generator: rebuild the store and transaction table from the
        durable WAL prefix.

        Charges ``replay_latency`` per record, then bulk-applies:
        SEMEL put/delete records rebuild the versioned store; txn
        records rebuild the table keeping the most-decided status per
        transaction (a decided entry is always appended after the
        prepared one), and committed records' writes are re-applied at
        their commit versions — the write values ride in the prepare
        records, which is what makes Algorithm 2's merge workable.
        """
        wal = self.wal
        if wal is None:
            return
        entries = wal.durable_records()
        wal.replays += 1
        delay = wal.replay_delay(len(entries))
        if delay > 0.0:
            yield self.sim.timeout(delay)
        puts: Dict[tuple, tuple] = {}
        merged = TxnTable(self.sim, self.name)
        for entry in entries:
            if entry.kind == SEMEL_PUT:
                key, value, version = entry.payload
                version = Version(*version)
                puts[(key, tuple(version))] = (key, value, version)
            elif entry.kind == SEMEL_DELETE:
                (key,) = entry.payload
                puts = {kv: item for kv, item in puts.items()
                        if kv[0] != key}
            elif entry.kind == TXN_RECORD:
                merged.merge(entry.payload.to_record())
        for record in merged.values():
            if record.status == COMMITTED:
                version = record.commit_version_of
                for key, value in record.writes:
                    puts.setdefault((key, tuple(version)),
                                    (key, value, version))
        if puts:
            self.backend.bulk_load(
                puts[kv] for kv in sorted(puts))
        self.txn_table = merged
        self.rebuild_key_states()

    def rebuild_key_states(self) -> None:
        """Rebuild the key states after a replay or a failover (§4.5):
        ``latest_committed`` from the stored version stamps, ``prepared``
        from the table's PREPARED records. ``latest_read`` cannot be
        rebuilt; the lease wait covers it."""
        for key in self.backend.keys():
            versions = self.backend.versions_of(key)
            if versions:
                self.key_states.mark_committed(key, versions[0])
        for record in self.txn_table.values():
            if record.status == PREPARED:
                self.key_states.restore_prepared(record)

    def catch_up_from_primary(self):
        """Generator: pull decided records and newest store versions
        from the shard primary after an amnesia restart. Returns True
        once caught up, False when the primary was unreachable (the
        restart protocol retries)."""
        primary = self.shard.primary
        if primary == self.name:
            return True
        try:
            reply = yield self.node.call(
                primary, "milana.catchup",
                MilanaCatchup(replica=self.name),
                timeout=self.replication_timeout)
        except RpcError:
            return False
        for wire in reply.records:
            record = wire.to_record()
            if self.txn_table.merge(record):
                if self.wal is not None:
                    # Catch-up data must survive the *next* crash too;
                    # no ack rides on it, so a background fsync is fine.
                    yield from self.wal.append_txn(record, sync=False)
            if record.status == COMMITTED:
                version = record.commit_version_of
                for key, value in record.writes:
                    if version not in self.backend.versions_of(key):
                        yield self.backend.put(key, value, version)
        for key, version_tuple, value in reply.versions:
            version = Version(*version_tuple)
            if version not in self.backend.versions_of(key):
                yield self.backend.put(key, value, version)
                if self.wal is not None:
                    yield from self.wal.append_put(
                        key, value, version, sync=False)
        return True

    def _handle_catchup(self, request: MilanaCatchup):
        """Primary side of a restarted backup's catch-up pull.

        Requires the primary *role* but not serving state: a primary
        mid-lease-wait already holds the merged, authoritative table,
        and backups catching up during that window shortens the shard's
        exposure to a second failure.
        """
        self._require_primary()
        records = tuple(
            TxnRecordWire.from_record(record)
            for _txn_id, record in sorted(self.txn_table.items())
            if record.status in (COMMITTED, ABORTED))
        versions = []
        for key in sorted(self.backend.keys()):
            result = yield self.backend.get(key)
            if result is None:
                continue
            version, value = result
            versions.append((key, tuple(version), value))
        return MilanaCatchupReply(records=records,
                                  versions=tuple(versions))

    # -- leases (§4.5) ----------------------------------------------------------------------------

    def _handle_renew_lease(self, request: MilanaRenewLease):
        yield from ()
        self.granted_leases[request.primary] = request.expiry
        return MilanaRenewLeaseReply(granted=True)

    # -- cooperative termination (§4.5, client failure) ----------------------------------------------

    def _ctp_daemon(self):
        """Resolve prepared transactions whose coordinator went silent."""
        while True:
            yield self.sim.timeout(self.ctp_timeout / 2)
            if not self.is_primary:
                continue
            now = self.sim.now
            stale = [
                record for record in self.txn_table.values()
                if record.status == PREPARED
                and now - record.prepared_at > self.ctp_timeout
            ]
            for record in stale:
                try:
                    yield from self._run_ctp(record)
                except (RpcError, QuorumError):
                    # An unreachable peer or a lost replication quorum
                    # must not kill the daemon: the record stays
                    # PREPARED and the next round retries.
                    continue

    def _run_ctp(self, record: TransactionRecord):
        """The four termination rules of §4.5 (client failure), with a
        coordinator termination query as the first move: if the client
        is reachable and already decided, its answer is authoritative
        and no peer round is needed."""
        tracer = self.sim.tracer
        if tracer is not None:
            # The CTP daemon is long-lived: each resolution is its own
            # section so guard windows reset per transaction.
            tracer.begin_section("ctp", record.txn_id)
        # The resolution rests on the record and its keys' states.
        self.txn_table.status(record)
        self.key_states.read(key for key, _value in record.writes)
        outcome = yield from self._query_coordinator(record)
        if self.txn_table.status(record) != PREPARED:
            return  # decided while we were querying
        if outcome is None:
            statuses = [PREPARED]  # this primary's own state
            for shard_name in record.participants:
                if shard_name == self.shard_name:
                    continue
                primary = self.directory.shard(shard_name).primary
                try:
                    reply = yield self.node.call(
                        primary, "milana.txn_status",
                        MilanaTxnStatus(txn_id=record.txn_id),
                        timeout=self.replication_timeout)
                except RpcError:
                    # Unreachable participant: cannot decide yet;
                    # retry later.
                    return
                statuses.append(reply.status)
            if self.txn_table.status(record) != PREPARED:
                return  # decided while we were querying
            if COMMITTED in statuses:
                outcome = COMMITTED  # rule 1: someone saw the commit
            elif ABORTED in statuses:
                outcome = ABORTED    # rules 1/3
            elif UNKNOWN in statuses:
                outcome = ABORTED    # rule 2: a participant never prepared
            else:
                outcome = COMMITTED  # rule 4: everyone prepared
        inflight = self._inflight_txn_ops.get(record.txn_id)
        if inflight is not None:
            # A decide (or a duplicate prepare's replication) is applying
            # this very transaction: wait it out instead of applying the
            # outcome a second time underneath it.
            yield inflight
        if self.txn_table.status(record) != PREPARED:
            return  # decided while we were querying / waiting
        self.ctp_resolutions += 1
        done = self.sim.event()
        self._inflight_txn_ops[record.txn_id] = done
        try:
            if outcome == COMMITTED:
                yield from self._apply_commit(record)
            else:
                self._apply_abort(record)
                if self.wal is not None:
                    yield from self.wal.append_txn(
                        record, sync=self.wal.config.sync_decides)
                yield from self._replicate_txn_record(record)
        finally:
            self._inflight_txn_ops.pop(record.txn_id, None)
            done.succeed()
        # Propagate the decision to the other participants, reliably:
        # each delivery is acked and retried — a lost oneway here would
        # leave the peer prepared until its own CTP round.
        for shard_name in record.participants:
            if shard_name == self.shard_name:
                continue
            self.sim.process(self._deliver_decide(
                shard_name, record.txn_id, outcome))

    def _query_coordinator(self, record: TransactionRecord):
        """Ask the coordinator client for the outcome it decided.

        Returns COMMITTED/ABORTED when the coordinator answered with a
        decision, else None (unreachable, or it never decided)."""
        if not record.client_name \
                or not self.node.network.is_registered(record.client_name):
            return None
        try:
            reply = yield self.node.call(
                record.client_name, "milana.txn_outcome",
                MilanaTxnStatus(txn_id=record.txn_id),
                timeout=self.replication_timeout)
        except RpcError:
            return None
        if reply.status in (COMMITTED, ABORTED):
            return reply.status
        return None

    def _deliver_decide(self, shard_name: str, txn_id: str, outcome: str):
        """Acked decide delivery to one peer primary, retried for 25
        rounds (and across failovers: the primary is re-resolved every
        round) until the peer confirms."""
        payload = MilanaDecide(txn_id=txn_id, outcome=outcome)
        for _ in range(25):
            primary = self.directory.shard(shard_name).primary
            try:
                yield self.node.call(
                    primary, "milana.decide", payload,
                    timeout=self.replication_timeout)
            except RpcError:
                yield self.sim.timeout(self.replication_timeout)
                continue
            return
