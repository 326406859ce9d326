"""Typed wire messages for every RPC method in the reproduction.

One frozen dataclass per request and per reply, with value semantics
(tuples, not lists) so a message cannot alias mutable state across the
simulated wire. Every message knows its own deterministic byte size
(:meth:`WireMessage.wire_size`), which the network charges as
transmission delay and per-edge byte counters; the value semantics are
also what allow that size to be computed once per message object.

``to_wire()``/``from_wire()`` round-trip a message through a plain-dict
form — the shape a real serializer would see — and are exercised by
:func:`repro.wire.registry.validate_registry` and ``repro wire --check``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .sizing import payload_size

__all__ = [
    "WireMessage",
    "Ack",
    "SemelGet",
    "SemelGetReply",
    "SemelGetHistory",
    "SemelGetHistoryReply",
    "SemelPut",
    "SemelPutReply",
    "SemelDelete",
    "SemelDeleteReply",
    "SemelReplicate",
    "WatermarkReport",
    "TxnRecordWire",
    "MilanaGet",
    "MilanaGetReply",
    "MilanaPrepare",
    "MilanaPrepareReply",
    "MilanaDecide",
    "MilanaDecideReply",
    "MilanaTxnStatus",
    "MilanaTxnStatusReply",
    "MilanaFetchLog",
    "MilanaFetchLogReply",
    "MilanaCatchup",
    "MilanaCatchupReply",
    "MilanaReplicateTxn",
    "MilanaRenewLease",
    "MilanaRenewLeaseReply",
    "MasterHeartbeat",
    "MasterHeartbeatReply",
    "MasterLookup",
    "MasterLookupReply",
]

#: Per-message type tag a schema'd encoding would transmit.
_MESSAGE_HEADER = 2


def _encode(value: Any) -> Any:
    """Recursively turn nested messages into their plain-dict form."""
    if isinstance(value, WireMessage):
        return value.to_wire()
    if isinstance(value, tuple):
        return tuple(_encode(item) for item in value)
    return value


@dataclass(frozen=True)
class WireMessage:
    """Base class: a frozen, self-sizing protocol message."""

    def to_wire(self) -> Dict[str, Any]:
        """Plain-dict form (nested messages become dicts too)."""
        return {
            f.name: _encode(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "WireMessage":
        """Rebuild from :meth:`to_wire` output. Subclasses with nested
        or sequence-typed fields override this to re-coerce them."""
        return cls(**payload)

    def wire_size(self) -> int:
        """Modelled size in bytes: type tag + field payloads.

        Walked once and kept on the instance: a message is frozen and
        its values are treated as immutable once it is sent, and the
        same object is sized again for every backup it fans out to,
        every retry and every envelope it is nested in. The size lives
        in the instance ``__dict__`` beside the fields, not among them,
        so ``==``, ``hash``, :meth:`to_wire` and ``dataclasses.replace``
        never see it.
        """
        size: Optional[int] = self.__dict__.get("_wire_size")
        if size is None:
            size = _MESSAGE_HEADER
            for name in self.__dataclass_fields__:
                size += payload_size(getattr(self, name))
            self.__dict__["_wire_size"] = size
        return size


@dataclass(frozen=True)
class Ack(WireMessage):
    """Generic positive acknowledgement (replication, decide, watermark)."""

    ack: bool = True


# -- SEMEL single-key operations (§3.3) ------------------------------------


@dataclass(frozen=True)
class SemelGet(WireMessage):
    """``semel.get``: youngest version of ``key`` at or below the bound."""

    key: str
    max_timestamp: Optional[float] = None


@dataclass(frozen=True)
class SemelGetReply(WireMessage):
    found: bool
    version: Optional[Tuple[float, int]] = None
    value: Any = None


@dataclass(frozen=True)
class SemelGetHistory(WireMessage):
    """``semel.get_history``: all retained versions in a time range."""

    key: str
    from_timestamp: float
    to_timestamp: float


@dataclass(frozen=True)
class SemelGetHistoryReply(WireMessage):
    #: ((version tuple, value), ...) oldest first.
    versions: Tuple[Tuple[Any, Any], ...] = ()

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "SemelGetHistoryReply":
        return cls(versions=tuple(
            (tuple(version), value)
            for version, value in payload["versions"]))


@dataclass(frozen=True)
class SemelPut(WireMessage):
    """``semel.put``: write ``value`` under a client-stamped version."""

    key: str
    value: Any
    version: Tuple[float, int]

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "SemelPut":
        return cls(key=payload["key"], value=payload["value"],
                   version=tuple(payload["version"]))


@dataclass(frozen=True)
class SemelPutReply(WireMessage):
    applied: bool
    duplicate: bool = False


@dataclass(frozen=True)
class SemelDelete(WireMessage):
    """``semel.delete``: drop every version of ``key``."""

    key: str


@dataclass(frozen=True)
class SemelDeleteReply(WireMessage):
    applied: bool = True


@dataclass(frozen=True)
class SemelReplicate(WireMessage):
    """``semel.replicate``: one unordered primary→backup record (§3.2)."""

    op: str  # "put" | "delete"
    key: str
    value: Any = None
    version: Optional[Tuple[float, int]] = None

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "SemelReplicate":
        version = payload.get("version")
        return cls(op=payload["op"], key=payload["key"],
                   value=payload.get("value"),
                   version=tuple(version) if version is not None else None)


@dataclass(frozen=True)
class WatermarkReport(WireMessage):
    """``semel.watermark`` (one-way): a client's GC low-water mark."""

    client_id: int
    timestamp: float


# -- MILANA transactions (§4) ----------------------------------------------


@dataclass(frozen=True)
class TxnRecordWire(WireMessage):
    """Wire form of a transaction record (prepare payloads, backup logs).

    The mutable server-side twin is
    :class:`repro.milana.transaction.TransactionRecord`; this class is
    the immutable value that actually crosses the network, so a backup
    can never alias the primary's record object. Being immutable it is
    shared freely: one instance per state of a transaction serves the
    WAL, the replication fan-out and the backups' logs (see
    :meth:`from_record`), and the records thawed from it share its
    tuples.
    """

    txn_id: str
    client_id: int
    client_name: str
    ts_commit: float
    #: ((key, observed version tuple or None), ...) for this shard.
    reads: Tuple[Tuple[str, Optional[Tuple[float, int]]], ...]
    #: ((key, value), ...) for this shard.
    writes: Tuple[Tuple[str, Any], ...]
    #: Every participant shard name (CTP and recovery need them all).
    participants: Tuple[str, ...]
    status: str
    prepared_at: float = 0.0

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "TxnRecordWire":
        return cls(
            txn_id=payload["txn_id"],
            client_id=payload["client_id"],
            client_name=payload["client_name"],
            ts_commit=payload["ts_commit"],
            reads=tuple(
                (key, tuple(version) if version is not None else None)
                for key, version in payload["reads"]),
            writes=tuple(
                (key, value) for key, value in payload["writes"]),
            participants=tuple(payload["participants"]),
            status=payload["status"],
            prepared_at=payload["prepared_at"],
        )

    @classmethod
    def from_record(cls, record: Any) -> "TxnRecordWire":
        """Snapshot a server/client-side ``TransactionRecord``.

        One snapshot is built per state change, not per use: while the
        record's ``snapshot`` still describes it (same status and
        prepare time, the very same read/write/participant tuples) that
        object is returned, so the WAL entry, the replication messages
        and the backups' logs of one state share it. A new snapshot
        takes the record's tuples as they are; lists (hand-built
        records) are frozen first and never shared.
        """
        last: Optional[TxnRecordWire] = record.snapshot
        if (last is not None
                and last.status == record.status
                and last.prepared_at == record.prepared_at
                and last.reads is record.reads
                and last.writes is record.writes
                and last.participants is record.participants):
            return last
        reads, writes = record.reads, record.writes
        participants = record.participants
        if type(reads) is not tuple:
            reads = tuple(
                (key, tuple(version) if version is not None else None)
                for key, version in reads)
        if type(writes) is not tuple:
            writes = tuple((key, value) for key, value in writes)
        if type(participants) is not tuple:
            participants = tuple(participants)
        snapshot = record.snapshot = cls(
            txn_id=record.txn_id,
            client_id=record.client_id,
            client_name=record.client_name,
            ts_commit=record.ts_commit,
            reads=reads,
            writes=writes,
            participants=participants,
            status=record.status,
            prepared_at=record.prepared_at,
        )
        return snapshot

    def to_record(self) -> Any:
        """Thaw into a mutable ``TransactionRecord`` for server tables.

        Only ``status`` and ``prepared_at`` ever change on a record, so
        it keeps this message's tuples rather than copying them, and
        remembers this message as its snapshot: logging or forwarding
        the record unchanged reuses the received object itself.
        """
        from ..milana.transaction import TransactionRecord
        record = TransactionRecord(
            txn_id=self.txn_id,
            client_id=self.client_id,
            client_name=self.client_name,
            ts_commit=self.ts_commit,
            reads=self.reads,
            writes=self.writes,
            participants=self.participants,
            status=self.status,
            prepared_at=self.prepared_at,
        )
        record.snapshot = self
        return record


@dataclass(frozen=True)
class MilanaGet(WireMessage):
    """``milana.get``: snapshot read at the transaction's ``ts_begin``."""

    key: str
    timestamp: float


@dataclass(frozen=True)
class MilanaGetReply(WireMessage):
    found: bool
    #: True iff a prepared version existed at or below the timestamp —
    #: the bit that makes client-local validation possible (§4.3).
    prepared: bool = False
    version: Optional[Tuple[float, int]] = None
    value: Any = None
    snapshot_miss: bool = False


@dataclass(frozen=True)
class MilanaPrepare(WireMessage):
    """``milana.prepare``: Algorithm 1 validation request (§4.2)."""

    record: TxnRecordWire

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "MilanaPrepare":
        return cls(record=TxnRecordWire.from_wire(payload["record"]))


@dataclass(frozen=True)
class MilanaPrepareReply(WireMessage):
    vote: str  # "SUCCESS" | "ABORT"
    reason: Optional[str] = None


@dataclass(frozen=True)
class MilanaDecide(WireMessage):
    """``milana.decide``: the coordinator's (async) outcome broadcast."""

    txn_id: str
    outcome: str  # COMMITTED | ABORTED


@dataclass(frozen=True)
class MilanaDecideReply(WireMessage):
    """Decide acknowledgement: the participant's resulting record status
    (UNKNOWN when it never saw the prepare). Sent only when the decide
    arrived as an acked call — the fast path stays one-way."""

    status: str  # COMMITTED | ABORTED | UNKNOWN


@dataclass(frozen=True)
class MilanaTxnStatus(WireMessage):
    """``milana.txn_status``: CTP / recovery status probe (§4.5)."""

    txn_id: str


@dataclass(frozen=True)
class MilanaTxnStatusReply(WireMessage):
    status: str  # PREPARED | COMMITTED | ABORTED | UNKNOWN


@dataclass(frozen=True)
class MilanaFetchLog(WireMessage):
    """``milana.fetch_log``: pull a replica's full transaction log."""


@dataclass(frozen=True)
class MilanaFetchLogReply(WireMessage):
    records: Tuple[TxnRecordWire, ...] = ()

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "MilanaFetchLogReply":
        return cls(records=tuple(
            TxnRecordWire.from_wire(record)
            for record in payload["records"]))


@dataclass(frozen=True)
class MilanaCatchup(WireMessage):
    """``milana.catchup``: a restarted backup's pull for everything it
    may have missed while down — decided records plus the newest stored
    version of every key (prepared records travel separately via normal
    ``milana.replicate_txn`` traffic and the recovery merge)."""

    replica: str


@dataclass(frozen=True)
class MilanaCatchupReply(WireMessage):
    records: Tuple[TxnRecordWire, ...] = ()
    #: ((key, version tuple, value), ...) — newest version per key.
    versions: Tuple[Tuple[str, Tuple[float, int], Any], ...] = ()

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "MilanaCatchupReply":
        return cls(
            records=tuple(
                TxnRecordWire.from_wire(record)
                for record in payload["records"]),
            versions=tuple(
                (key, tuple(version), value)
                for key, version, value in payload["versions"]),
        )


@dataclass(frozen=True)
class MilanaReplicateTxn(WireMessage):
    """``milana.replicate_txn``: unordered txn-record replication."""

    record: TxnRecordWire

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "MilanaReplicateTxn":
        return cls(record=TxnRecordWire.from_wire(payload["record"]))


@dataclass(frozen=True)
class MilanaRenewLease(WireMessage):
    """``milana.renew_lease``: primary→backup read-lease renewal (§4.5)."""

    primary: str
    expiry: float


@dataclass(frozen=True)
class MilanaRenewLeaseReply(WireMessage):
    granted: bool = True


# -- master service (§3's global master) -----------------------------------


@dataclass(frozen=True)
class MasterHeartbeat(WireMessage):
    """``master.heartbeat`` (one-way): server liveness report."""

    server: str
    shard: str


@dataclass(frozen=True)
class MasterHeartbeatReply(WireMessage):
    epoch: int = 0


@dataclass(frozen=True)
class MasterLookup(WireMessage):
    """``master.lookup``: shard-map query (one key, or the full map)."""

    key: Optional[str] = None


@dataclass(frozen=True)
class MasterLookupReply(WireMessage):
    #: Single-key lookups fill these four...
    shard: Optional[str] = None
    primary: Optional[str] = None
    replicas: Optional[Tuple[str, ...]] = None
    epoch: Optional[int] = None
    #: ...full-map lookups fill this: shard name -> info dict.
    shards: Optional[Dict[str, Dict[str, Any]]] = None

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "MasterLookupReply":
        replicas = payload.get("replicas")
        return cls(
            shard=payload.get("shard"),
            primary=payload.get("primary"),
            replicas=tuple(replicas) if replicas is not None else None,
            epoch=payload.get("epoch"),
            shards=payload.get("shards"),
        )
