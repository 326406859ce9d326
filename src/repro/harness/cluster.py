"""Cluster construction: wire simulator, clocks, network, servers, clients.

A :class:`Cluster` materializes one experiment deployment from a
:class:`ClusterConfig` — the analogue of the paper's ExoGENI slice:
N shards × R replicas of MILANA/SEMEL servers over a chosen storage
backend, plus M clients with a chosen clock discipline, all on a shared
latency-modelled network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..clocks import ClockEnsemble
from ..durability import DurabilityConfig, WriteAheadLog
from ..flash.device import FlashDevice
from ..flash.geometry import FlashGeometry
from ..ftl import DRAMBackend, MFTLBackend, VFTLBackend
from ..milana.client import MilanaClient
from ..milana.recovery import RecoveryError, recover_steps
from ..milana.server import MilanaServer
from ..net.latency import JitteredLatency
from ..net.network import Network
from ..semel.sharding import Directory
from ..sim.core import Simulator
from ..sim.process import Process
from ..sim.rng import SeededRng
from ..versioning import Version

__all__ = ["ClusterConfig", "Cluster", "BACKEND_KINDS"]

BACKEND_KINDS = ("dram", "mftl", "vftl", "sftl")


@dataclass
class ClusterConfig:
    """Everything needed to stand up one deployment."""

    num_shards: int = 1
    replicas_per_shard: int = 3
    num_clients: int = 4
    backend: str = "mftl"
    clock_preset: str = "perfect"
    seed: int = 42
    local_validation: bool = True
    network_base_latency: float = 50e-6
    #: Link bandwidth in bytes per simulated second; None models an
    #: infinitely fast link (zero transmission delay), preserving the
    #: pre-bandwidth behaviour of existing experiments.
    network_bandwidth: Optional[float] = None
    #: Flash geometry per storage server; None picks one sized for
    #: ``populate_keys`` (about 3x the live data set).
    geometry: Optional[FlashGeometry] = None
    #: Keys pre-loaded into the store before the run.
    populate_keys: int = 0
    ctp_timeout: Optional[float] = None  # None disables the CTP daemon
    #: Optional callable (sim, network, directory, clock, client_id,
    #: local_validation) -> MilanaClient, for client variants (Centiman,
    #: caching, history-recording).
    client_factory: Optional[Callable] = None
    #: Optional callable () -> Simulator; the sanitizer (repro.sansim)
    #: supplies a TracedSimulator here. None keeps the production kernel.
    simulator_factory: Optional[Callable[[], Simulator]] = None
    #: Run an active master with heartbeat failure detection and
    #: automatic primary failover (§3's global master).
    with_master: bool = False
    #: Attach a per-server write-ahead log. None (the default) leaves
    #: ``server.wal`` as the class-level None, so existing experiments'
    #: schedules are byte-identical. With a config, amnesia crashes
    #: (:meth:`Cluster.crash_server`) become survivable via WAL replay.
    durability: Optional[DurabilityConfig] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_KINDS:
            raise ValueError(
                f"backend must be one of {BACKEND_KINDS}, got "
                f"{self.backend!r}")
        if self.num_shards < 1 or self.replicas_per_shard < 1:
            raise ValueError("need at least one shard and one replica")


def _sized_geometry(keys_per_shard: int) -> FlashGeometry:
    """Geometry giving ~6x headroom over the live data set.

    Sizing keeps GC active (like the paper's 15-minute runs) without
    letting the device wedge: until every client has reported a
    watermark, *all* versions are retained (the GC lower bound is
    unknown), so the early-run version build-up needs generous slack —
    especially for VFTL, whose double reserve leaves it only 81 % of raw
    capacity.
    """
    records_per_page = 4096 // 512
    live_pages = max(1, math.ceil(keys_per_shard / records_per_page))
    num_blocks = max(32, math.ceil(live_pages * 6 / 32))
    return FlashGeometry(page_size=4096, pages_per_block=32,
                         num_blocks=num_blocks, num_channels=16)


class Cluster:
    """A fully wired simulated deployment."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.sim = (config.simulator_factory()
                    if config.simulator_factory is not None
                    else Simulator())
        self.rng = SeededRng(config.seed)
        self.network = Network(
            self.sim, self.rng,
            latency=JitteredLatency(
                base=config.network_base_latency,
                bandwidth=config.network_bandwidth))
        self.clock_ensemble = ClockEnsemble(
            self.sim, self.rng, preset=config.clock_preset)
        shards = {
            f"shard{s}": [f"srv-{s}-{r}"
                          for r in range(config.replicas_per_shard)]
            for s in range(config.num_shards)
        }
        self.directory = Directory(shards)
        self.servers: Dict[str, MilanaServer] = {}
        self.devices: Dict[str, FlashDevice] = {}
        keys_per_shard = (config.populate_keys // config.num_shards
                          if config.num_shards else 0)
        self._keys_per_shard = keys_per_shard
        for shard_name, replica_names in shards.items():
            for server_name in replica_names:
                backend = self._make_backend(server_name, keys_per_shard)
                server = MilanaServer(
                    self.sim, self.network, self.directory, server_name,
                    shard_name, backend, ctp_timeout=config.ctp_timeout)
                if config.durability is not None:
                    server.wal = WriteAheadLog(self.sim, server_name,
                                               config.durability)
                self.servers[server_name] = server
        factory = config.client_factory or self._default_client_factory
        self.clients: List[MilanaClient] = [
            factory(self.sim, self.network, self.directory,
                    self.clock_ensemble.clock_for(f"client-{i}"),
                    i + 1, config.local_validation)
            for i in range(config.num_clients)
        ]
        self.master = None
        self.heartbeats = []
        self._heartbeat_by_server: Dict[str, Any] = {}
        if config.with_master:
            from ..semel.master import HeartbeatReporter, Master
            self.master = Master(self.sim, self.network, self.directory,
                                 self.servers)
            self.master.start()
            for server in self.servers.values():
                reporter = HeartbeatReporter(server)
                reporter.start()
                self.heartbeats.append(reporter)
                self._heartbeat_by_server[server.name] = reporter
        #: Failure-injection bookkeeping: names currently link-paused,
        #: amnesia-crashed, and mid-restart (name -> restart Process).
        self._paused: set = set()
        self._amnesia_crashed: set = set()
        self._restarting: Dict[str, Process] = {}
        self.populated_keys: List[str] = []
        if config.populate_keys:
            self.populate(config.populate_keys)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _default_client_factory(sim, network, directory, clock, client_id,
                                local_validation):
        return MilanaClient(sim, network, directory, clock,
                            client_id=client_id,
                            local_validation=local_validation)

    def _make_backend(self, server_name: str, keys_per_shard: int):
        kind = self.config.backend
        if kind == "dram":
            return DRAMBackend(self.sim)
        geometry = self.config.geometry or _sized_geometry(keys_per_shard)
        device = FlashDevice(self.sim, geometry)
        self.devices[server_name] = device
        if kind == "mftl":
            return MFTLBackend(self.sim, device)
        if kind == "sftl":
            return MFTLBackend(self.sim, device, multi_version=False)
        return VFTLBackend(self.sim, device)

    # -- population -----------------------------------------------------------------

    def populate(self, num_keys: int) -> List[str]:
        """Pre-load ``num_keys`` keys into every replica's backend."""
        keys = [f"key:{i}" for i in range(num_keys)]
        # Stamp initial data far in the past so any client snapshot —
        # including one from a clock with a negative offset — can read it.
        version = Version(-1e6, 0)
        per_server: Dict[str, list] = {name: [] for name in self.servers}
        for key in keys:
            shard = self.directory.shard_of(key)
            item = (key, f"value-of-{key}", version)
            for replica in shard.replicas:
                per_server[replica].append(item)
        for server_name, items in per_server.items():
            server = self.servers[server_name]
            server.backend.bulk_load(items)
            if server.wal is not None:
                # Pre-loaded data is durable by definition (it "was
                # already on disk"), at zero simulated cost.
                for key, value, item_version in items:
                    server.wal.bootstrap_put(key, value, item_version)
        self.populated_keys = keys
        return keys

    # -- failure injection ------------------------------------------------------------

    #: Backoff between restart-protocol retries (majority not yet up, or
    #: the primary unreachable for a backup catch-up).
    RESTART_RETRY_DELAY = 20e-3

    def pause_server(self, name: str) -> None:
        """Cut a server's links. Its memory, timers, and in-flight
        handlers survive; :meth:`unpause_server` restores it verbatim."""
        if name in self._amnesia_crashed or name in self._restarting:
            raise RuntimeError(
                f"{name} is amnesia-crashed; restart_server() it instead "
                f"of pausing")
        self._paused.add(name)
        self.network.crash(name)

    def unpause_server(self, name: str) -> None:
        """Reconnect a paused server, volatile state intact."""
        if name in self._amnesia_crashed or name in self._restarting:
            raise RuntimeError(
                f"{name} was amnesia-crashed, not paused; its memory is "
                f"gone — use restart_server() to replay the WAL")
        self._paused.discard(name)
        self.network.recover(name)

    def crash_server(self, name: str) -> None:
        """Fail-stop ``name``: links cut, every in-flight handler and
        daemon killed, volatile state wiped — only the WAL's durable
        prefix survives, and only :meth:`restart_server` brings it
        back. (A node that merely loses its links is
        :meth:`pause_server`.)"""
        # A second crash mid-restart kills the restart protocol too.
        proc = self._restarting.pop(name, None)
        if proc is not None and proc.is_alive:
            proc.interrupt("crash")
        self._paused.discard(name)
        self._amnesia_crashed.add(name)
        self.network.crash(name)
        self.servers[name].crash()
        reporter = self._heartbeat_by_server.get(name)
        if reporter is not None:
            reporter.crash()

    def restart_server(self, name: str) -> Process:
        """Bring an amnesia-crashed server back. Returns the restart
        Process: fresh backend, WAL replay, then the role-appropriate
        rejoin (Algorithm 2 merge + lease wait for a primary, catch-up
        pull for a backup), retried until the shard cooperates."""
        if name not in self._amnesia_crashed:
            if name in self._paused:
                raise RuntimeError(
                    f"{name} is paused, not crashed; unpause_server() "
                    f"reconnects it with its state intact")
            raise RuntimeError(f"{name} is not crashed")
        if name in self._restarting:
            raise RuntimeError(f"{name} is already restarting")
        proc = self.sim.process(self._restart_protocol(name))
        self._restarting[name] = proc
        return proc

    def _restart_protocol(self, name: str):
        server = self.servers[name]
        backend = self._make_backend(name, self._keys_per_shard)
        server.restart(backend)
        self.network.recover(name)
        yield from server.replay_wal()
        while True:
            if server.is_primary:
                try:
                    yield from recover_steps(server)
                    break
                except RecoveryError:
                    # Majority unreachable (e.g. the rest of the shard
                    # is also down); wait for more replicas.
                    yield self.sim.timeout(self.RESTART_RETRY_DELAY)
            else:
                caught_up = yield from server.catch_up_from_primary()
                if caught_up:
                    break
                yield self.sim.timeout(self.RESTART_RETRY_DELAY)
        reporter = self._heartbeat_by_server.get(name)
        if reporter is not None:
            reporter.restart()
        # Bookkeeping last: a crash interrupt anywhere above leaves the
        # server in _crashed, which is exactly right.
        self._amnesia_crashed.discard(name)
        self._restarting.pop(name, None)

    def server_state(self, name: str) -> str:
        """``up`` | ``paused`` | ``crashed`` | ``recovering``."""
        if name in self._restarting:
            return "recovering"
        if name in self._amnesia_crashed:
            return "crashed"
        if name in self._paused:
            return "paused"
        return "up"

    def is_serving(self, name: str) -> bool:
        """True when the replica is up and participating (a paused,
        crashed, or mid-restart node cannot contribute to quorums)."""
        return self.server_state(name) == "up"

    def pending_restarts(self) -> List[Process]:
        """Restart protocols still in flight (for drains/settling)."""
        return [proc for proc in self._restarting.values()
                if proc.is_alive]

    def primary_server(self, shard_name: str) -> MilanaServer:
        return self.servers[self.directory.shard(shard_name).primary]
