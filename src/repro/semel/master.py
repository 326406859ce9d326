"""The global master: membership, failure detection, auto-failover.

§3 of the paper delegates shard-map maintenance to a global master "based
on its global view of participating servers ... implemented using
standard techniques (e.g., Apache Zookeeper)". This module provides that
service as an active node rather than a passive map:

* storage servers send periodic **heartbeats**; the master declares a
  server dead after ``failure_timeout`` of silence;
* when a dead server was a shard **primary**, the master runs failover:
  it picks the healthiest surviving replica, bumps the shard's **epoch**,
  promotes in the directory, and drives
  :func:`~repro.milana.recovery.recover_primary` on the new primary;
* when a dead server was a **backup**, the master only records it — the
  quorum math (f of 2f) already tolerates it;
* recovered servers resume heartbeating and are marked alive again.

Epochs let late observers order promotions; clients consult the shared
directory object (the standard client-side shard-map cache) which the
master mutates atomically at promotion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..milana.recovery import RecoveryError, recover_primary
from ..net.network import Network
from ..net.rpc import RpcNode
from ..sim.core import Simulator
from ..sim.process import Process
from ..wire import (
    MasterHeartbeat,
    MasterHeartbeatReply,
    MasterLookup,
    MasterLookupReply,
)
from .sharding import Directory

__all__ = ["Master", "HeartbeatReporter", "DEFAULT_HEARTBEAT_INTERVAL",
           "DEFAULT_FAILURE_TIMEOUT"]

DEFAULT_HEARTBEAT_INTERVAL = 10e-3
DEFAULT_FAILURE_TIMEOUT = 35e-3

#: The master's node name: there is one master per deployment, and the
#: heartbeat reporters address it by this name.
_MASTER_NAME = "master"


@dataclass
class _ServerHealth:
    last_heartbeat: float = float("-inf")
    alive: bool = True


class Master:
    """Failure detector and failover coordinator for the cluster."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        directory: Directory,
        servers: Dict[str, "MilanaServer"],  # noqa: F821
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        failure_timeout: float = DEFAULT_FAILURE_TIMEOUT,
        lease_wait: float = 30e-3,
    ) -> None:
        if failure_timeout <= heartbeat_interval:
            raise ValueError(
                f"failure_timeout {failure_timeout} must exceed the "
                f"heartbeat interval {heartbeat_interval}")
        self.sim = sim
        self.directory = directory
        self.servers = servers
        self.name = _MASTER_NAME
        self.heartbeat_interval = heartbeat_interval
        self.failure_timeout = failure_timeout
        self.lease_wait = lease_wait
        self.node = RpcNode(sim, network, self.name)
        self.node.register("master.heartbeat", self._handle_heartbeat)
        self.node.register("master.lookup", self._handle_lookup)
        self._health: Dict[str, _ServerHealth] = {
            server: _ServerHealth() for server in directory.all_servers()
        }
        #: shard -> promotion epoch; bumped on every failover.
        self.epochs: Dict[str, int] = {
            shard: 0 for shard in directory.shard_names
        }
        self.failovers: List[tuple] = []
        self._failing_over: set = set()
        self._detector: Optional[Process] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> Process:
        """Begin failure detection; returns the detector process."""
        if self._detector is None:
            self._detector = self.sim.process(self._detector_loop())
        return self._detector

    # -- handlers ----------------------------------------------------------------

    def _handle_heartbeat(self, request: MasterHeartbeat):
        yield from ()
        health = self._health.setdefault(request.server, _ServerHealth())
        health.last_heartbeat = self.sim.now
        if not health.alive:
            health.alive = True
        return MasterHeartbeatReply(
            epoch=self.epochs.get(request.shard, 0))

    def _handle_lookup(self, request: MasterLookup):
        """Serve the shard map over RPC (clients normally read the cached
        directory object; this is the cold-start / refresh path)."""
        yield from ()
        if request.key is not None:
            shard = self.directory.shard_of(request.key)
            return MasterLookupReply(
                shard=shard.name,
                primary=shard.primary,
                replicas=tuple(shard.replicas),
                epoch=self.epochs[shard.name],
            )
        return MasterLookupReply(shards={
            name: {
                "primary": self.directory.shard(name).primary,
                "replicas": list(self.directory.shard(name).replicas),
                "epoch": self.epochs[name],
            }
            for name in self.directory.shard_names
        })

    # -- failure detection -------------------------------------------------------------

    def is_alive(self, server: str) -> bool:
        health = self._health.get(server)
        if health is None:
            return False
        if health.last_heartbeat == float("-inf"):
            # Never heard from it; give it a grace period from time 0.
            return self.sim.now < self.failure_timeout
        return (self.sim.now - health.last_heartbeat
                < self.failure_timeout)

    def _detector_loop(self):
        while True:
            yield self.sim.timeout(self.heartbeat_interval)
            for shard_name in self.directory.shard_names:
                shard = self.directory.shard(shard_name)
                primary = shard.primary
                if (not self.is_alive(primary)
                        and shard_name not in self._failing_over):
                    self._failing_over.add(shard_name)
                    self.sim.process(self._failover(shard_name, primary))

    def _pick_successor(self, shard_name: str) -> Optional[str]:
        shard = self.directory.shard(shard_name)
        for replica in shard.replicas:
            if self.is_alive(replica):
                return replica
        return None

    def _failover(self, shard_name: str, dead_primary: str):
        """Promote a live replica and drive recovery to completion.

        Recovery can fail transiently (no majority reachable); the loop
        re-evaluates cluster state and retries until the shard has a
        live, recovered primary — including picking a different successor
        if the first choice dies mid-recovery.
        """
        try:
            while True:
                shard = self.directory.shard(shard_name)
                current = shard.primary
                current_server = self.servers.get(current)
                if (self.is_alive(current) and current_server is not None
                        and current_server.serving_after <= self.sim.now):
                    return  # healthy and serving; nothing to do
                successor = self._pick_successor(shard_name)
                if successor is None:
                    # No live replica at all; wait for one to return.
                    yield self.sim.timeout(self.failure_timeout)
                    continue
                if successor != current:
                    self.directory.promote(shard_name, successor)
                    self.epochs[shard_name] += 1
                try:
                    yield recover_primary(self.servers[successor],
                                          lease_wait=self.lease_wait)
                except RecoveryError:
                    # Majority unavailable; retry once more replicas are
                    # heartbeating again.
                    yield self.sim.timeout(self.failure_timeout)
                    continue
                self.failovers.append(
                    (self.sim.now, shard_name, dead_primary, successor))
                return
        finally:
            self._failing_over.discard(shard_name)


class HeartbeatReporter:
    """Server-side heartbeat loop to the master."""

    def __init__(self, server,
                 interval: float = DEFAULT_HEARTBEAT_INTERVAL) -> None:
        self.server = server
        self.interval = interval
        self._daemon: Optional[Process] = None

    def start(self) -> Process:
        if self._daemon is None:
            self._daemon = self.server.sim.process(self._loop())
        return self._daemon

    def _loop(self):
        while True:
            self.server.node.send_oneway(
                _MASTER_NAME, "master.heartbeat",
                MasterHeartbeat(server=self.server.name,
                                shard=self.server.shard_name))
            yield self.server.sim.timeout(self.interval)

    # -- crash / restart ---------------------------------------------------

    def crash(self) -> None:
        if self._daemon is not None and self._daemon.is_alive:
            self._daemon.interrupt("crash")
        self._daemon = None

    def restart(self) -> None:
        self.start()
