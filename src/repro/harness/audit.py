"""Post-heal consistency audits: the nemesis loop's closing argument.

A fault injection run is only evidence if the system's guarantees are
machine-checked afterwards. After the workload finishes and every fault
is healed, the audit asserts:

* **serializability** — the committed history every client recorded
  (``MilanaClient(record_history=True)``) passes the MVSG check in
  :mod:`repro.verify`;
* **no lost committed writes** — every write a client was told committed
  is still observable at its shard primary (the version itself, or a
  newer one when watermark GC legitimately trimmed it);
* **no stuck PREPARED** — no primary's transaction table holds an
  in-doubt record after heal plus lease expiry: CTP or reliable decide
  delivery must have terminated every transaction;
* **replica convergence** — after the :func:`sync_replicas` repair pass
  (primaries push decided records to backups, standing in for the
  anti-entropy a production system would run), every live replica agrees
  on the newest version of every audited key.

All checks except the repair pass are pure reads of simulator state —
they send no messages and draw no randomness, so auditing a run does not
perturb it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..milana.transaction import ABORTED, PREPARED
from ..net.rpc import RpcError
from ..sim.process import Process
from ..verify import TxnEntry, check_serializability
from ..wire import MilanaReplicateTxn, TxnRecordWire
from .cluster import Cluster

__all__ = [
    "AuditReport",
    "collect_history",
    "sync_replicas",
    "run_audit",
]


@dataclass
class AuditReport:
    """Outcome of one post-heal consistency audit."""

    serializable: bool
    witness: Optional[tuple]
    committed_txns: int
    checked_writes: int
    #: Commits the clients counted (``stats.committed``), recorded or
    #: not: an empty history next to a positive count means the clients
    #: did not record, and the audit checked nothing.
    clients_committed: int = 0
    #: (txn_id, key, version) writes acked to a client but unobservable
    #: at the shard primary.
    lost_writes: List[Tuple[str, str, tuple]] = field(default_factory=list)
    #: (server, txn_id) records still PREPARED on a primary.
    stuck_prepared: List[Tuple[str, str]] = field(default_factory=list)
    #: (server, txn_id) transactions a client was told COMMITTED whose
    #: record a participant primary now holds as ABORTED — the classic
    #: amnesia-crash atomicity violation (recovery mis-resolved a
    #: transaction whose commit was already acknowledged).
    acked_aborted: List[Tuple[str, str]] = field(default_factory=list)
    #: (replica, key, detail) replicas disagreeing on a key's newest
    #: version after the repair pass.
    divergent: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def _vacuous(self) -> bool:
        return self.committed_txns == 0 and self.clients_committed > 0

    @property
    def passed(self) -> bool:
        return (not self._vacuous
                and self.serializable and not self.lost_writes
                and not self.stuck_prepared and not self.acked_aborted
                and not self.divergent)

    def summary(self) -> str:
        lines = [
            f"audit: {'PASS' if self.passed else 'FAIL'}",
            f"  committed txns      {self.committed_txns}",
            f"  writes checked      {self.checked_writes}",
            f"  serializable        {self.serializable}"
            + (f" (witness: {self.witness})" if self.witness else ""),
            f"  lost writes         {len(self.lost_writes)}",
            f"  stuck PREPARED      {len(self.stuck_prepared)}",
            f"  acked-but-aborted   {len(self.acked_aborted)}",
            f"  divergent replicas  {len(self.divergent)}",
        ]
        for txn_id, key, version in self.lost_writes[:5]:
            lines.append(f"    lost: {txn_id} {key!r} {version}")
        for server, txn_id in self.stuck_prepared[:5]:
            lines.append(f"    stuck: {txn_id} on {server}")
        for server, txn_id in self.acked_aborted[:5]:
            lines.append(f"    acked-aborted: {txn_id} on {server}")
        for replica, key, detail in self.divergent[:5]:
            lines.append(f"    diverged: {key!r} on {replica}: {detail}")
        if self._vacuous:
            lines.append(
                f"    vacuous: clients committed {self.clients_committed} "
                "transactions but recorded no history")
        return "\n".join(lines)


def collect_history(cluster: Cluster) -> List[TxnEntry]:
    """All committed transactions recorded by the cluster's clients,
    in a deterministic order."""
    history: List[TxnEntry] = []
    for client in cluster.clients:
        history.extend(client.history)
    history.sort(key=lambda entry: (entry.ts, entry.txn_id))
    return history


def sync_replicas(cluster: Cluster, timeout: float = 10e-3) -> Process:
    """Repair pass: every primary pushes its decided transaction records
    to its backups (acked), standing in for anti-entropy. Fires with the
    number of records pushed; unreachable backups are skipped."""
    return cluster.sim.process(_sync(cluster, timeout))


def _sync(cluster: Cluster, timeout: float):
    pushed = 0
    for shard_name in sorted(cluster.directory.shard_names):
        server = cluster.primary_server(shard_name)
        for txn_id in sorted(server.txn_table):
            record = server.txn_table[txn_id]
            if record.status == PREPARED:
                continue
            request = MilanaReplicateTxn(
                record=TxnRecordWire.from_record(record))
            for backup in server.backups:
                try:
                    yield server.node.call(
                        backup, "milana.replicate_txn", request,
                        timeout=timeout)
                    pushed += 1
                except RpcError:
                    continue
    return pushed


def _observable(versions, version) -> bool:
    """A committed write is observable if its version is retained or a
    newer version exists (watermark GC may trim superseded ones)."""
    return bool(versions) and versions[0] >= version


def run_audit(cluster: Cluster) -> AuditReport:
    """Run every consistency check against the cluster's current state.

    Call after healing all faults, letting in-flight work drain, and
    (for the convergence check to be meaningful) running
    :func:`sync_replicas`.
    """
    history = collect_history(cluster)
    serializable, witness = check_serializability(history)

    lost: List[Tuple[str, str, tuple]] = []
    checked = 0
    audited_keys = set()
    for entry in history:
        for key, version in sorted(entry.writes.items()):
            checked += 1
            audited_keys.add(key)
            shard = cluster.directory.shard_of(key)
            primary = cluster.servers[shard.primary]
            if not _observable(primary.backend.versions_of(key), version):
                lost.append((entry.txn_id, key, tuple(version)))

    stuck: List[Tuple[str, str]] = []
    for shard_name in sorted(cluster.directory.shard_names):
        server = cluster.primary_server(shard_name)
        for txn_id in sorted(server.txn_table):
            if server.txn_table[txn_id].status == PREPARED:
                stuck.append((server.name, txn_id))

    acked_aborted: List[Tuple[str, str]] = []
    for entry in history:
        shards = sorted({cluster.directory.shard_of(key).name
                         for key in entry.writes})
        for shard_name in shards:
            server = cluster.primary_server(shard_name)
            record = server.txn_table.get(entry.txn_id)
            if record is not None and record.status == ABORTED:
                acked_aborted.append((server.name, entry.txn_id))

    divergent: List[Tuple[str, str, str]] = []
    for key in sorted(audited_keys):
        shard = cluster.directory.shard_of(key)
        newest = {}
        for replica in shard.replicas:
            if cluster.network.is_crashed(replica):
                continue
            versions = cluster.servers[replica].backend.versions_of(key)
            newest[replica] = versions[0] if versions else None
        values = set(newest.values())
        if len(values) > 1:
            reference = max(
                (v for v in values if v is not None), default=None)
            for replica, version in sorted(newest.items()):
                if version != reference:
                    divergent.append((
                        replica, key,
                        f"newest {version} != {reference}"))

    return AuditReport(
        serializable=serializable,
        witness=witness,
        committed_txns=len(history),
        checked_writes=checked,
        clients_committed=sum(client.stats.committed
                              for client in cluster.clients),
        lost_writes=lost,
        stuck_prepared=stuck,
        acked_aborted=acked_aborted,
        divergent=divergent,
    )
