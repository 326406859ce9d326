"""MILANA client library: OCC transactions coordinated at the client.

Implements the §4.1 API — beginTransaction / get / put /
commitTransaction / abortTransaction — with the client acting as the 2PC
coordinator (§4.2) and, for read-only transactions, as its own validator
(§4.3):

* reads are issued at ``ts_begin`` and record the returned version plus
  the server's prepared bit;
* writes are buffered; reads of buffered keys hit the local cache;
* a read-only transaction commits **locally** iff no key in its read set
  had a prepared version at or below ``ts_begin`` — zero round trips;
* a read-write transaction prepares at every participant shard primary,
  commits iff all vote SUCCESS, and notifies the outcome asynchronously —
  the client answers the application after collecting votes, without
  waiting for the decide round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..clocks.base import Clock
from ..histogram import LatencyHistogram
from ..net.network import Network
from ..net.rpc import RpcError, RpcNode, RpcTimeout
from ..sim.core import Simulator
from ..sim.process import Process
from ..semel.sharding import Directory
from ..verify import TxnEntry
from ..versioning import Version
from ..wire import (
    MilanaDecide,
    MilanaGet,
    MilanaPrepare,
    MilanaTxnStatus,
    MilanaTxnStatusReply,
    TxnRecordWire,
    WatermarkReport,
)
from .transaction import (
    ABORTED,
    COMMITTED,
    PREPARED,
    UNKNOWN,
    ReadObservation,
    Transaction,
)

__all__ = ["MilanaClient", "TxnStats", "TransactionAborted"]


class TransactionAborted(Exception):
    """Raised by ``txn_get`` when a read cannot observe a snapshot (the
    single-version backend case) — the caller should abort and retry."""


@dataclass
class TxnStats:
    """Per-client transaction outcome and latency accounting."""

    started: int = 0
    committed: int = 0
    aborted: int = 0
    local_validations: int = 0
    remote_validations: int = 0
    latency_total: float = 0.0
    latency_committed_total: float = 0.0
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    #: Prepare attempts whose outcome at the participant is unknown
    #: (RPC timed out): NOT the same as an ABORT vote — the participant
    #: may hold a prepared record that must be resolved.
    unknown_votes: int = 0
    #: Decide broadcasts escalated to acked, retried-until-delivered.
    reliable_decides: int = 0
    #: Individual decide delivery attempts that had to be repeated.
    decide_retries: int = 0
    #: Full latency distribution of decided transactions (p50/p95/p99).
    latency_histogram: LatencyHistogram = field(
        default_factory=LatencyHistogram)

    @property
    def decided(self) -> int:
        return self.committed + self.aborted

    @property
    def abort_rate(self) -> float:
        return self.aborted / self.decided if self.decided else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_total / self.decided if self.decided else 0.0

    @property
    def mean_commit_latency(self) -> float:
        if not self.committed:
            return 0.0
        return self.latency_committed_total / self.committed

    def count_abort(self, reason: str) -> None:
        self.aborted += 1
        self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1


class MilanaClient:
    """One application-server client running MILANA transactions."""

    #: Rounds an escalated (acked) decide delivery is retried before it
    #: is left to the participant-side termination query.
    DECIDE_RETRY_LIMIT = 25

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        directory: Directory,
        clock: Clock,
        client_id: int,
        name: Optional[str] = None,
        local_validation: bool = True,
        rpc_timeout: float = 10e-3,
        rpc_retries: int = 1,
        record_history: bool = False,
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.clock = clock
        self.client_id = client_id
        self.name = name or f"milana-client-{client_id}"
        self.node = RpcNode(sim, network, self.name)
        self.local_validation = local_validation
        self.rpc_timeout = rpc_timeout
        self.rpc_retries = rpc_retries
        #: Record committed transactions as verify.TxnEntry for offline
        #: serializability audits (harness.audit).
        self.record_history = record_history
        self.stats = TxnStats()
        self.history: List[TxnEntry] = []
        #: txn_id -> final outcome, serving the participant-side
        #: termination query (milana.txn_outcome) backstop.
        self._decided_outcomes: Dict[str, str] = {}
        self.node.register("milana.txn_outcome", self._handle_txn_outcome)
        #: Timestamp of the latest decided transaction: this client's
        #: watermark contribution (§4.4).
        self.last_decided_timestamp = float("-inf")
        self._txn_start_times: Dict[str, float] = {}
        # Per-instance so txn ids — and everything keyed on them — are
        # independent of whatever other clients ran in this process.
        # Uniqueness still holds: ids are namespaced by client_id.
        self._txn_counter = itertools.count(1)

    # -- transaction lifecycle ------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction stamped with the client's current time."""
        txn = Transaction(
            txn_id=f"t{self.client_id}.{next(self._txn_counter)}",
            client_id=self.client_id,
            ts_begin=self.clock.now(),
        )
        self.stats.started += 1
        self._txn_start_times[txn.txn_id] = self.sim.now
        return txn

    def put(self, txn: Transaction, key: str, value: Any) -> None:
        """Buffer a write; it reaches servers only at commit."""
        txn.writes[key] = value

    def txn_get(self, txn: Transaction, key: str) -> Process:
        """Read ``key`` at the transaction's snapshot; fires with the value
        (or None for a missing key)."""
        return self.sim.start(self._txn_get(txn, key))

    def txn_get_many(self, txn: Transaction, keys) -> Process:
        """Read several keys at the transaction's snapshot in parallel.

        Issues the server round trips concurrently (they are independent
        snapshot reads at ``ts_begin``), which collapses an N-key read
        phase from N round trips to ~1. Fires with a dict
        ``{key: value}``.
        """
        return self.sim.process(self._txn_get_many(txn, list(keys)))

    def _txn_get_many(self, txn: Transaction, keys):
        pending = [
            (key, self.sim.process(self._txn_get(txn, key)))
            for key in keys
        ]
        if pending:
            outcome = self.sim.all_of([proc for _, proc in pending])
            try:
                yield outcome
            except Exception:
                # One read failed (e.g. snapshot miss): the others may
                # still fail later; absorb their failures so the abort
                # propagates exactly once, through this call.
                for _, proc in pending:
                    proc.defused = True
                raise
        return {key: proc.value for key, proc in pending}

    def commit(self, txn: Transaction) -> Process:
        """Run the commit protocol; fires with COMMITTED or ABORTED."""
        return self.sim.start(self._commit(txn))

    def abort(self, txn: Transaction, reason: str = "application") -> None:
        """Discard the transaction's state and count the abort."""
        txn.status = ABORTED
        self._decide_locally(txn, reason=reason)

    # -- reads -----------------------------------------------------------------

    def _txn_get(self, txn: Transaction, key: str):
        if key in txn.writes:
            return txn.writes[key]
        if key in txn.reads:
            return txn.reads[key].value
        primary = self.directory.primary_of(key)
        reply = yield self.node.call(
            primary, "milana.get",
            MilanaGet(key=key, timestamp=txn.ts_begin),
            timeout=self.rpc_timeout, retries=self.rpc_retries)
        if reply.snapshot_miss:
            # The key exists but not at our snapshot (single-version
            # store discarded it): the transaction cannot read a
            # consistent snapshot and must abort.
            raise TransactionAborted(
                f"snapshot at {txn.ts_begin} unavailable for {key!r}")
        version = Version(*reply.version) if reply.found else None
        observation = ReadObservation(
            version=version,
            prepared=reply.prepared,
            value=reply.value,
        )
        txn.reads[key] = observation
        return observation.value

    # -- commit paths ----------------------------------------------------------------

    def _commit(self, txn: Transaction):
        if txn.is_read_only and self.local_validation:
            outcome = self._commit_read_only_local(txn)
            return outcome
        outcome = yield from self._commit_two_phase(txn)
        return outcome

    def _commit_read_only_local(self, txn: Transaction) -> str:
        """§4.3: commit iff the read set came from a consistent snapshot.

        Every returned value was the youngest committed version at
        ``ts_begin`` by construction; the snapshot is consistent exactly
        when no key had a prepared (in-doubt) version at or below
        ``ts_begin``.
        """
        self.stats.local_validations += 1
        conflicted = [key for key, obs in txn.reads.items() if obs.prepared]
        if conflicted:
            txn.status = ABORTED
            self._decide_locally(
                txn, reason="local-validation: prepared version in "
                "read set")
            return ABORTED
        txn.status = COMMITTED
        self._decide_locally(txn)
        return COMMITTED

    def _commit_two_phase(self, txn: Transaction):
        """Client-coordinated 2PC (§4.2, Figure 4)."""
        self.stats.remote_validations += 1
        txn.ts_commit = self.clock.now()
        by_shard = self._group_by_shard(txn)
        participants = sorted(by_shard)
        votes: Dict[str, str] = {}
        reasons: List[str] = []

        calls = []
        for shard_name in participants:
            reads, writes = by_shard[shard_name]
            request = MilanaPrepare(record=TxnRecordWire(
                txn_id=txn.txn_id,
                client_id=self.client_id,
                client_name=self.name,
                ts_commit=txn.ts_commit,
                reads=tuple(
                    (key, tuple(version) if version is not None else None)
                    for key, version in reads),
                writes=tuple(writes),
                participants=tuple(participants),
                status=PREPARED,
                prepared_at=0.0,
            ))
            primary = self.directory.shard(shard_name).primary
            calls.append((shard_name, self.sim.process(
                self._prepare_one(primary, request))))
        for shard_name, call in calls:
            vote, reason = yield call
            votes[shard_name] = vote
            if reason:
                reasons.append(reason)

        unknown = sum(1 for vote in votes.values() if vote == UNKNOWN)
        self.stats.unknown_votes += unknown
        if all(vote == "SUCCESS" for vote in votes.values()):
            outcome = COMMITTED
        else:
            # An UNKNOWN vote also aborts: the coordinator cannot prove
            # the participant prepared. The difference from an ABORT
            # vote is delivery, below — that participant may hold a
            # prepared record that must learn the outcome.
            outcome = ABORTED
        self._decided_outcomes[txn.txn_id] = outcome
        # Report to the application first; notify participants async
        # (§4.2). The oneway fast path carries the outcome when every
        # vote arrived; once any outcome is in doubt the broadcast is
        # escalated to acked delivery, retried until each participant
        # confirms — otherwise an in-doubt prepared record could linger
        # and block every reader's local validation.
        reliable = unknown > 0
        for shard_name in participants:
            if reliable:
                self.stats.reliable_decides += 1
                self.sim.process(self._deliver_decide(
                    shard_name, txn.txn_id, outcome))
            else:
                primary = self.directory.shard(shard_name).primary
                self.node.send_oneway(
                    primary, "milana.decide",
                    MilanaDecide(txn_id=txn.txn_id, outcome=outcome))
        txn.status = outcome
        if outcome == COMMITTED:
            self._decide_locally(txn)
        else:
            self._decide_locally(
                txn, reason=reasons[0] if reasons else "validation")
        return outcome

    def _prepare_one(self, primary: str, request: MilanaPrepare):
        try:
            reply = yield self.node.call(
                primary, "milana.prepare", request,
                timeout=self.rpc_timeout, retries=self.rpc_retries)
        except RpcTimeout as exc:
            # No vote arrived: the participant may or may not hold a
            # prepared record. Distinguishable from a real ABORT vote so
            # the decide path knows delivery must be reliable.
            return UNKNOWN, f"prepare outcome unknown at {primary}: {exc}"
        except RpcError as exc:
            return "ABORT", f"prepare failed at {primary}: {exc}"
        return reply.vote, reply.reason

    def _deliver_decide(self, shard_name: str, txn_id: str, outcome: str):
        """Push the outcome to one participant until it acknowledges.

        Re-resolves the shard primary every round so delivery follows a
        failover. Gives up after ``DECIDE_RETRY_LIMIT`` rounds — the
        participant-side termination query (CTP + ``milana.txn_outcome``)
        is the backstop for participants unreachable that long.
        """
        payload = MilanaDecide(txn_id=txn_id, outcome=outcome)
        for _ in range(self.DECIDE_RETRY_LIMIT):
            primary = self.directory.shard(shard_name).primary
            try:
                yield self.node.call(
                    primary, "milana.decide", payload,
                    timeout=self.rpc_timeout)
            except RpcError:
                self.stats.decide_retries += 1
                yield self.sim.timeout(self.rpc_timeout)
                continue
            return

    def _handle_txn_outcome(self, request: MilanaTxnStatus):
        """Participant termination-query backstop: report the recorded
        outcome of one of this coordinator's transactions."""
        yield from ()
        return MilanaTxnStatusReply(
            status=self._decided_outcomes.get(request.txn_id, UNKNOWN))

    # -- bookkeeping ------------------------------------------------------------------

    def _group_by_shard(self, txn: Transaction) -> Dict[str, Tuple[list, list]]:
        by_shard: Dict[str, Tuple[list, list]] = {}
        for key, version in txn.read_set:
            shard = self.directory.shard_of(key).name
            by_shard.setdefault(shard, ([], []))[0].append((key, version))
        for key, value in txn.write_set:
            shard = self.directory.shard_of(key).name
            by_shard.setdefault(shard, ([], []))[1].append((key, value))
        return by_shard

    def _decide_locally(self, txn: Transaction,
                        reason: Optional[str] = None) -> None:
        started_at = self._txn_start_times.pop(txn.txn_id, self.sim.now)
        latency = self.sim.now - started_at
        self.stats.latency_total += latency
        self.stats.latency_histogram.record(latency)
        if txn.status == COMMITTED:
            self.stats.committed += 1
            self.stats.latency_committed_total += latency
        else:
            self.stats.count_abort(reason or "unknown")
        self._decided_outcomes[txn.txn_id] = txn.status
        decided_ts = txn.ts_commit if txn.ts_commit is not None \
            else txn.ts_begin
        self.last_decided_timestamp = max(
            self.last_decided_timestamp, decided_ts)
        if self.record_history and txn.status == COMMITTED:
            version = Version(txn.ts_commit, self.client_id) \
                if txn.writes else None
            self.history.append(TxnEntry(
                txn_id=txn.txn_id,
                reads={key: obs.version
                       for key, obs in txn.reads.items()},
                writes={key: version for key in txn.writes},
                ts=decided_ts))

    # -- watermark broadcasting (§4.4) ---------------------------------------------------

    def broadcast_watermark(self) -> None:
        """Send the latest-decided timestamp to every storage server."""
        if self.last_decided_timestamp == float("-inf"):
            return
        report = WatermarkReport(client_id=self.client_id,
                                 timestamp=self.last_decided_timestamp)
        for server in self.directory.all_servers():
            self.node.send_oneway(server, "semel.watermark", report)

    def start_watermark_daemon(self, interval: float = 0.1) -> Process:
        return self.sim.process(self._watermark_loop(interval))

    def _watermark_loop(self, interval: float):
        while True:
            yield self.sim.timeout(interval)
            self.broadcast_watermark()
