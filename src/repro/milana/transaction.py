"""Transaction data structures shared by MILANA clients and servers.

A transaction executes entirely on one client (§4.1): the client assigns
``ts_begin`` at begin and ``ts_commit`` at commit from its PTP clock,
buffers writes locally, and tracks for every key it read the exact version
it observed plus whether the server reported a prepared version at or
below ``ts_begin`` (the bit local validation needs, §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..versioning import Version

__all__ = [
    "PREPARED",
    "COMMITTED",
    "ABORTED",
    "UNKNOWN",
    "STATUS_RANK",
    "ReadObservation",
    "Transaction",
    "TransactionRecord",
    "TxnTable",
]

# Transaction states, used in the primary's transaction table, in backup
# logs, and in recovery / CTP exchanges.
PREPARED = "PREPARED"
COMMITTED = "COMMITTED"
ABORTED = "ABORTED"
UNKNOWN = "UNKNOWN"

#: Merge order for replica logs and WAL replay: a decided status always
#: beats PREPARED, and once decided a status never changes.
STATUS_RANK = {PREPARED: 0, ABORTED: 1, COMMITTED: 2}


@dataclass(frozen=True)
class ReadObservation:
    """What the client learned when it read a key."""

    #: The version returned, or None when no version <= ts_begin existed.
    version: Optional[Version]
    #: True if the server had a prepared version with ts <= ts_begin.
    prepared: bool
    value: Any = None


@dataclass
class Transaction:
    """Client-side transaction handle."""

    txn_id: str
    client_id: int
    ts_begin: float
    reads: Dict[str, ReadObservation] = field(default_factory=dict)
    writes: Dict[str, Any] = field(default_factory=dict)
    ts_commit: Optional[float] = None
    status: str = "ACTIVE"
    #: §4.3 extension: declared read-write in advance, permitting cached
    #: or any-replica reads at the price of mandatory remote validation.
    read_write_hint: bool = False

    @property
    def is_read_only(self) -> bool:
        return not self.writes

    @property
    def read_set(self) -> List[Tuple[str, Optional[Tuple]]]:
        """(key, observed version tuple) pairs, for prepare payloads."""
        return [
            (key, tuple(obs.version) if obs.version is not None else None)
            for key, obs in self.reads.items()
        ]

    @property
    def write_set(self) -> List[Tuple[str, Any]]:
        return list(self.writes.items())

    @property
    def keys_touched(self) -> List[str]:
        return sorted(set(self.reads) | set(self.writes))


@dataclass
class TransactionRecord:
    """Server-side record of a prepared/decided transaction.

    Lives in the primary's transaction table and, via replication, in the
    backups' logs — the raw material of the Algorithm 2 recovery merge.

    Only ``status`` and ``prepared_at`` change after construction; the
    read, write and participant sequences are iterated and measured,
    never edited, which is what lets a record thawed from the wire keep
    the message's tuples and lets one immutable ``TxnRecordWire`` stand
    for each state the record passes through (``snapshot``).
    """

    txn_id: str
    client_id: int
    client_name: str
    ts_commit: float
    #: (key, version tuple or None) for keys of *this shard* in the read set.
    reads: Sequence[Tuple[str, Optional[Tuple]]]
    #: (key, value) for keys of this shard in the write set.
    writes: Sequence[Tuple[str, Any]]
    #: All participant shard names (for CTP and recovery, §4.2).
    participants: Sequence[str]
    status: str = PREPARED
    prepared_at: float = 0.0
    #: The ``TxnRecordWire`` this record was thawed from or last frozen
    #: into; ``TxnRecordWire.from_record`` reuses it while it still
    #: describes the record. Bookkeeping, not part of the record's value.
    snapshot: Optional[Any] = field(default=None, init=False, repr=False,
                                    compare=False)

    def to_wire(self) -> Dict[str, Any]:
        """Plain-dict form for RPC payloads and backup logs."""
        return {
            "txn_id": self.txn_id,
            "client_id": self.client_id,
            "client_name": self.client_name,
            "ts_commit": self.ts_commit,
            "reads": list(self.reads),
            "writes": list(self.writes),
            "participants": list(self.participants),
            "status": self.status,
            "prepared_at": self.prepared_at,
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "TransactionRecord":
        return cls(
            txn_id=payload["txn_id"],
            client_id=payload["client_id"],
            client_name=payload["client_name"],
            ts_commit=payload["ts_commit"],
            reads=[(key, tuple(ver) if ver is not None else None)
                   for key, ver in payload["reads"]],
            writes=[tuple(pair) for pair in payload["writes"]],
            participants=list(payload["participants"]),
            status=payload["status"],
            prepared_at=payload["prepared_at"],
        )

    @property
    def commit_version_of(self):
        """Factory for this transaction's write version stamps."""
        return Version(self.ts_commit, self.client_id)


class TxnTable(dict):
    """txn_id -> TransactionRecord: one server's §4.1 transaction table.

    The handlers' accesses report themselves to ``sim.tracer`` (the race
    sanitizer, :mod:`repro.sansim`) as the location
    ``("txn", node, txn_id)``: ``get`` and ``status`` are reads, an item
    store is a write, and ``applied`` is a write plus the exclusive
    ``("txn-apply", node, txn_id)`` single-apply location. Indexing,
    iteration, ``restore`` and ``merge`` are not reported: the CTP
    daemon's scan, ``fetch_log``, recovery, catch-up, WAL replay and
    audits use those.
    """

    def __init__(self, sim: Any, node: str) -> None:
        super().__init__()
        self._sim = sim
        self._node = node

    def get(self, txn_id: str, default: Any = None) -> Any:
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.on_read(("txn", self._node, txn_id))
        return dict.get(self, txn_id, default)

    def __setitem__(self, txn_id: str, record: TransactionRecord) -> None:
        dict.__setitem__(self, txn_id, record)
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.on_write(("txn", self._node, txn_id))

    def status(self, record: TransactionRecord) -> str:
        """``record.status``, read as this table's entry for it: CTP
        holds the record it resolves and re-checks it across yields."""
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.on_read(("txn", self._node, record.txn_id))
        return record.status

    def applied(self, record: TransactionRecord) -> None:
        """``record``'s outcome was just applied in place. A transaction's
        outcome is applied exactly once per primary, which the exclusive
        location asserts."""
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.on_write(("txn", self._node, record.txn_id))
            tracer.on_write(("txn-apply", self._node, record.txn_id),
                            exclusive=True)

    def restore(self, record: TransactionRecord) -> None:
        dict.__setitem__(self, record.txn_id, record)

    def merge(self, record: TransactionRecord) -> bool:
        """Keep the most-decided record per transaction (a decided status
        always beats PREPARED); True when ``record`` was stored."""
        existing = dict.get(self, record.txn_id)
        if (existing is not None and STATUS_RANK[record.status]
                <= STATUS_RANK[existing.status]):
            return False
        dict.__setitem__(self, record.txn_id, record)
        return True
