"""Primary failover and the Algorithm 2 recovery merge (§4.5).

When a primary fails, a backup is promoted and must reach a consistent
state before serving:

1. pull transaction logs from every reachable replica of the shard (a
   majority, f+1 including itself, must be available);
2. merge per Algorithm 2 — committed records apply directly; a prepared
   record with a single participant commits (the client would have
   committed it); a multi-shard prepared record is resolved by querying
   the other participants' primaries (commit if any committed or if all
   prepared; abort if any aborted or never prepared);
3. rebuild the DRAM key states: ``latest_committed`` from stored version
   stamps, ``prepared`` from the merged table (``latest_read`` cannot be
   rebuilt — the lease wait covers it);
4. propagate the merged table to the backups;
5. wait out the old primary's read lease before serving.
"""

from __future__ import annotations

from typing import Dict, List

from ..net.rpc import RpcError
from ..sim.process import Process
from ..wire import (
    MilanaFetchLog,
    MilanaReplicateTxn,
    MilanaTxnStatus,
    TxnRecordWire,
)
from .leases import DEFAULT_LEASE_DURATION
from .server import MilanaServer
from .transaction import ABORTED, COMMITTED, PREPARED, STATUS_RANK, \
    UNKNOWN, TransactionRecord

__all__ = ["RecoveryError", "recover_primary", "recover_steps",
           "merge_records"]


class RecoveryError(Exception):
    """Recovery could not complete (e.g. no majority of replicas)."""


def merge_records(
        logs: List[List[TxnRecordWire]]) -> Dict[str, TransactionRecord]:
    """Merge replica logs, keeping the most-decided status per txn.

    COMMITTED/ABORTED beat PREPARED: any replica that saw a decision
    proves the decision happened (Algorithm 2's premise that a majority-
    acknowledged record survives on at least one live replica).
    """
    merged: Dict[str, TransactionRecord] = {}
    for log in logs:
        for wire in log:
            record = wire.to_record()
            existing = merged.get(record.txn_id)
            if (existing is None
                    or STATUS_RANK[record.status]
                    > STATUS_RANK[existing.status]):
                merged[record.txn_id] = record
    return merged


def recover_primary(
    server: MilanaServer,
    lease_wait: float = DEFAULT_LEASE_DURATION,
) -> Process:
    """Bring a freshly promoted primary to a consistent, serving state.

    The caller must already have promoted ``server`` in the directory.
    The returned process fires once the server is serving.
    """
    return server.sim.process(_recover(server, lease_wait))


def recover_steps(
    server: MilanaServer,
    lease_wait: float = DEFAULT_LEASE_DURATION,
):
    """Generator form of :func:`recover_primary`, for callers that drive
    recovery from their own process — the cluster restart protocol uses
    this so a second crash can interrupt the whole recovery in one
    place."""
    return _recover(server, lease_wait)


def _recover(server: MilanaServer, lease_wait: float):
    sim = server.sim
    if not server.is_primary:
        raise RecoveryError(
            f"{server.name} is not the primary of {server.shard_name}")
    # Reads and prepares are refused until the lease horizon passes.
    server.serving_after = float("inf")

    # 1. Collect logs from reachable replicas (self included).
    shard = server.shard
    logs: List[List[TxnRecordWire]] = [
        [TxnRecordWire.from_record(record)
         for record in server.txn_table.values()]
    ]
    reachable = 1
    for replica in shard.replicas:
        if replica == server.name:
            continue
        try:
            reply = yield server.node.call(
                replica, "milana.fetch_log", MilanaFetchLog(),
                timeout=server.replication_timeout)
        except RpcError:
            continue
        logs.append(list(reply.records))
        reachable += 1
    if reachable < shard.fault_tolerance + 1:
        raise RecoveryError(
            f"only {reachable} replicas reachable; need majority "
            f"{shard.fault_tolerance + 1}")

    # 2. Algorithm 2 merge.
    merged = merge_records(logs)
    for record in merged.values():
        if record.status == COMMITTED:
            yield from _ensure_applied(server, record)
        elif record.status == ABORTED:
            server.txn_table.restore(record)
        else:  # PREPARED
            yield from _resolve_prepared(server, record)

    # 3. Rebuild per-key state.
    server.rebuild_key_states()

    # 4. Propagate the merged table to the backups (best effort; the
    #    records are already majority-durable).
    for record in server.txn_table.values():
        for backup in server.backups:
            server.node.send_oneway(
                backup, "milana.replicate_txn",
                MilanaReplicateTxn(
                    record=TxnRecordWire.from_record(record)))

    # 5. Lease wait (§4.5): latest_read state died with the old primary;
    #    no stale read can have a timestamp beyond its lease horizon.
    yield sim.timeout(lease_wait)
    server.serving_after = sim.now
    return server


def _ensure_applied(server: MilanaServer, record: TransactionRecord):
    """Apply a committed record's writes if this replica missed them."""
    version = record.commit_version_of
    puts = []
    for key, value in record.writes:
        if version not in server.backend.versions_of(key):
            puts.append(server.backend.put(key, value, version))
    if puts:
        yield server.sim.all_of(puts)
    record.status = COMMITTED
    server.txn_table.restore(record)


def _resolve_prepared(server: MilanaServer, record: TransactionRecord):
    """Algorithm 2, prepared branch."""
    if len(record.participants) <= 1:
        # Single shard: the client committed iff this prepare succeeded,
        # and it did (the record exists on a majority).
        yield from _ensure_applied(server, record)
        return
    statuses = []
    unreachable = False
    for shard_name in record.participants:
        if shard_name == server.shard_name:
            continue
        primary = server.directory.shard(shard_name).primary
        try:
            reply = yield server.node.call(
                primary, "milana.txn_status",
                MilanaTxnStatus(txn_id=record.txn_id),
                timeout=server.replication_timeout)
            statuses.append(reply.status)
        except RpcError:
            unreachable = True
    if COMMITTED in statuses:
        yield from _ensure_applied(server, record)
    elif ABORTED in statuses or UNKNOWN in statuses:
        # An explicit UNKNOWN means that participant never prepared, so
        # the client cannot have committed (CTP rule 2).
        record.status = ABORTED
        server.txn_table.restore(record)
    elif unreachable:
        # Cannot decide safely yet: keep it prepared; the CTP daemon will
        # retry once the other participant is reachable again.
        record.status = PREPARED
        server.txn_table.restore(record)
        server.key_states.restore_prepared(record)
    else:
        # All participants still prepared: the transaction is outstanding
        # and should be committed (§4.5). Propagate the decision with
        # acked, retried delivery — a lost oneway here would strand the
        # peers' prepared records until their own CTP rounds.
        yield from _ensure_applied(server, record)
        for shard_name in record.participants:
            if shard_name == server.shard_name:
                continue
            server.sim.process(server._deliver_decide(
                shard_name, record.txn_id, COMMITTED))
