"""SEMEL storage server: versioned KV service with primary/backup roles.

Each server hosts one shard replica over a pluggable storage backend
(MFTL, VFTL, DRAM, ...). The primary for a shard serializes RPCs on its
objects (§3.3):

* **get** — reads the youngest version at or below the request timestamp;
* **put** — rejects writes older than the key's current version
  (at-most-once with global clocks), acknowledges duplicates idempotently
  (the watermark scheme guarantees a retransmitted write's version is
  still retained), writes locally, and commits once f of its 2f backups
  acknowledge the unordered replication record;
* **delete** — replicated the same way.

Backups apply replication records in whatever order they arrive —
"inconsistent replication" (§3.2) — because version stamps recover the
order. All handlers are idempotent.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..ftl.base import KVBackend
from ..net.network import Network
from ..net.rpc import AppError, RpcNode
from ..sim.core import Simulator
from ..versioning import Version
from ..wire import (
    Ack,
    SemelDelete,
    SemelDeleteReply,
    SemelGet,
    SemelGetHistory,
    SemelGetHistoryReply,
    SemelGetReply,
    SemelPut,
    SemelPutReply,
    SemelReplicate,
    WatermarkReport,
)
from .replication import QuorumError, replicate_to_backups
from .sharding import Directory
from .watermark import WatermarkTracker

__all__ = ["StorageServer"]


class StorageServer:
    """One shard replica: RPC service over a versioned storage backend."""

    #: Optional :class:`repro.durability.WriteAheadLog`, attached by the
    #: cluster when durability is configured. A class attribute so the
    #: disabled path costs one attribute load and schedules stay
    #: byte-identical.
    wal = None
    #: How long a primary waits for its backups' replication acks (and
    #: the recovery and lease rounds built on them) before giving up.
    replication_timeout = 10e-3

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        directory: Directory,
        name: str,
        shard_name: str,
        backend: KVBackend,
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.name = name
        self.shard_name = shard_name
        self.backend = backend
        self.node = RpcNode(sim, network, name)
        self.watermarks = WatermarkTracker()
        self.puts_rejected_stale = 0
        self.puts_deduplicated = 0
        #: (key, version) -> completion event for puts still in flight, so
        #: a retransmission arriving mid-write coalesces with the original
        #: instead of double-inserting; ``_inflight_replicas`` does the
        #: same for a backup's replication records.
        self._inflight_puts: Dict[tuple, Any] = {}
        self._inflight_replicas: Dict[tuple, Any] = {}
        #: (key, version) pairs written locally but not yet acked by a
        #: backup quorum (replication failed or is still running). A
        #: retransmission must not be acked as a duplicate success until
        #: replication actually completes.
        self._unreplicated: set = set()
        self._register_handlers()

    # -- role helpers -----------------------------------------------------

    @property
    def shard(self):
        return self.directory.shard(self.shard_name)

    @property
    def is_primary(self) -> bool:
        return self.shard.primary == self.name

    @property
    def backups(self) -> List[str]:
        return [replica for replica in self.shard.replicas
                if replica != self.name]

    @property
    def quorum_acks(self) -> int:
        """Backup acks needed for a majority including this primary."""
        return self.shard.fault_tolerance

    def _require_primary(self) -> None:
        if not self.is_primary:
            raise AppError(
                f"{self.name} is not the primary of {self.shard_name}")

    # -- handler registration ---------------------------------------------

    def _register_handlers(self) -> None:
        self.node.register("semel.get", self._handle_get)
        self.node.register("semel.get_history", self._handle_get_history)
        self.node.register("semel.put", self._handle_put)
        self.node.register("semel.delete", self._handle_delete)
        self.node.register("semel.replicate", self._handle_replicate)
        self.node.register("semel.watermark", self._handle_watermark)

    # -- handlers --------------------------------------------------------------

    def _handle_get(self, request: SemelGet):
        self._require_primary()
        result = yield self.backend.get(
            request.key, max_timestamp=request.max_timestamp)
        if result is None:
            return SemelGetReply(found=False)
        version, value = result
        return SemelGetReply(found=True, version=tuple(version),
                             value=value)

    def _handle_get_history(self, request: SemelGetHistory):
        """Snapshot-history read for analytics (§3.1's tunable-window
        motivation): every retained version of a key in a time range."""
        self._require_primary()
        history = yield self.backend.get_history(
            request.key, request.from_timestamp, request.to_timestamp)
        return SemelGetHistoryReply(versions=tuple(
            (tuple(version), value) for version, value in history))

    def _handle_put(self, request: SemelPut):
        self._require_primary()
        key = request.key
        value = request.value
        version = Version(*request.version)
        inflight_key = (key, version)
        inflight = self._inflight_puts.get(inflight_key)
        if inflight is not None:
            # A duplicate of a put still being written: wait for the
            # original to finish and repeat its response.
            self.puts_deduplicated += 1
            yield inflight
            yield from self._finish_replication(key, value, version)
            return SemelPutReply(applied=True, duplicate=True)
        existing = self.backend.versions_of(key)
        if version in existing:
            # Retransmitted request: repeat the earlier success response —
            # unless the original attempt died mid-replication, in which
            # case the write is local-only and acking it now would report
            # durability that never happened. Finish replicating first.
            self.puts_deduplicated += 1
            yield from self._finish_replication(key, value, version)
            return SemelPutReply(applied=True, duplicate=True)
        if existing and version < existing[0]:
            # §3.3: a timestamp comparison blocks stale writes; the client
            # receives a rejection but at-most-once semantics hold.
            self.puts_rejected_stale += 1
            raise AppError(
                f"stale write for {key!r}: {version} < {existing[0]}")
        done = self.sim.event()
        self._inflight_puts[inflight_key] = done
        self._unreplicated.add(inflight_key)
        try:
            yield self.backend.put(key, value, version)
            if self.wal is not None:
                # Durable before the ack that claims it (§3.3): the put
                # must survive an amnesia crash of this primary.
                yield from self.wal.append_put(
                    key, value, version, sync=self.wal.config.sync_semel)
            yield from self._replicate(SemelReplicate(
                op="put", key=key, value=value, version=tuple(version)))
            self._unreplicated.discard(inflight_key)
        finally:
            # pop, not del: a crash-kill interrupt lands here after the
            # volatile tables were replaced, so the key may be gone.
            self._inflight_puts.pop(inflight_key, None)
            done.succeed()
        return SemelPutReply(applied=True, duplicate=False)

    def _finish_replication(self, key, value, version):
        """Re-drive replication for a locally applied but never
        quorum-acked put, before a duplicate success is returned."""
        if (key, version) not in self._unreplicated:
            return
        yield from self._replicate(SemelReplicate(
            op="put", key=key, value=value, version=tuple(version)))
        self._unreplicated.discard((key, version))

    def _handle_delete(self, request: SemelDelete):
        self._require_primary()
        yield self.backend.delete(request.key)
        if self.wal is not None:
            yield from self.wal.append_delete(
                request.key, sync=self.wal.config.sync_semel)
        yield from self._replicate(SemelReplicate(
            op="delete", key=request.key))
        return SemelDeleteReply(applied=True)

    def _handle_replicate(self, request: SemelReplicate):
        """Backup-side application of an unordered replication record."""
        key = request.key
        if request.op == "put":
            version = Version(*request.version)
            inflight_key = (key, version)
            inflight = self._inflight_replicas.get(inflight_key)
            if inflight is not None:
                yield inflight
            elif version not in self.backend.versions_of(key):
                done = self.sim.event()
                self._inflight_replicas[inflight_key] = done
                try:
                    yield self.backend.put(key, request.value, version)
                    if self.wal is not None:
                        # The Ack below is this backup's durability
                        # claim toward the primary's quorum count.
                        yield from self.wal.append_put(
                            key, request.value, version,
                            sync=self.wal.config.sync_semel)
                finally:
                    self._inflight_replicas.pop(inflight_key, None)
                    done.succeed()
        elif request.op == "delete":
            yield self.backend.delete(key)
            if self.wal is not None:
                yield from self.wal.append_delete(
                    key, sync=self.wal.config.sync_semel)
        else:
            raise AppError(f"unknown replication op {request.op!r}")
        return Ack()

    def _handle_watermark(self, request: WatermarkReport):
        self.watermarks.report(request.client_id, request.timestamp)
        watermark = self.watermarks.watermark
        if watermark > float("-inf"):
            self.backend.set_watermark(watermark)
        yield from ()  # handler protocol: must be a generator
        return Ack()

    # -- crash / restart ---------------------------------------------------

    def crash(self) -> None:
        """Amnesia fail-stop: kill every in-flight process on this node
        and wipe all volatile state. The caller must already have the
        network dropping this node's traffic (:meth:`Network.crash`);
        only the WAL's durable prefix survives."""
        self.node.crash()
        if self.wal is not None:
            self.wal.crash()
        self._inflight_puts = {}
        self._inflight_replicas = {}
        self._unreplicated = set()
        self.watermarks = WatermarkTracker()

    def restart(self, backend: KVBackend) -> None:
        """Come back up empty over a fresh ``backend``; state is rebuilt
        by WAL replay and the cluster restart protocol."""
        self.backend = backend
        self.node.restart()

    # -- replication ---------------------------------------------------------------

    def _replicate(self, record: SemelReplicate):
        backups = self.backups
        need = min(self.quorum_acks, len(backups))
        if need <= 0:
            return
        try:
            yield from replicate_to_backups(
                self.node, backups, "semel.replicate", record, need,
                timeout=self.replication_timeout)
        except QuorumError as exc:
            # QuorumError is not an RpcError, so without this it sails
            # past every ``except RpcError`` up the handler chain and
            # lands in _serve as an opaque handler error. An AppError is
            # the protocol-level rejection the sender is built to retry.
            raise AppError(str(exc)) from exc
