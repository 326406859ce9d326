"""Scripted and randomized failure injection.

Recovery code that is only exercised by hand-built scenarios rots; a
chaos schedule keeps it honest. Two tools:

* :class:`NemesisPlan` — the fault DSL: partitions (symmetric and
  asymmetric), probabilistic link loss, latency spikes, clock anomalies
  (steps, drift, spike storms), link-level pauses (the node's memory
  survives) and amnesia crashes, all scheduled at exact instants and
  recorded on a fault-event timeline. Named builders
  (:func:`partition_primary_from_backups`, :func:`isolate_master`,
  :func:`majority_minority_split`, :func:`clock_storm`,
  :func:`loss_storm`) compose onto one plan via their ``plan=``
  argument; SeededRng-drawn schedules keep every run reproducible.
* :class:`ChaosMonkey` — randomized rolling failures: every interval it
  crashes a random *backup* (never reducing any shard below a connected
  majority — partitions count) and revives it after ``downtime``.
  Primaries are excluded by default because automatic primary failover
  is the :class:`~repro.semel.master.Master`'s job — enable
  ``include_primaries`` when one is running.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..net.network import Network
from ..sim.process import Process
from ..sim.rng import SeededRng
from .cluster import Cluster

__all__ = [
    "NemesisPlan",
    "ChaosMonkey",
    "largest_connected_majority",
    "partition_primary_from_backups",
    "isolate_master",
    "majority_minority_split",
    "clock_storm",
    "loss_storm",
]


class NemesisPlan:
    """A deterministic script of fault inject/heal events.

    Every event is scheduled at an exact simulated instant and recorded
    on :attr:`timeline` when it fires, so a run's fault history can be
    reported next to its metrics. Helpers cover the full fault surface:
    link state (:meth:`partition` / :meth:`block` / :meth:`set_loss` /
    :meth:`latency_spike`), clocks (:meth:`clock_step` /
    :meth:`clock_drift` / :meth:`clock_spike`) and fail-stop crashes.
    ``heal_all`` restores a fault-free network (crashed nodes recover
    separately, clock anomalies clear separately).
    """

    def __init__(self, cluster: Cluster, name: str = "nemesis") -> None:
        self.cluster = cluster
        self.name = name
        self._events: List[Tuple[float, int, str, Callable[[], None]]] = []
        #: (time, description) of every fault event that has fired.
        self.timeline: List[Tuple[float, str]] = []
        #: Restart Processes spawned by :meth:`restart`/:meth:`recover`,
        #: so a driver can wait for the recovery protocols to finish.
        self.restarts: List[Process] = []

    # -- generic scheduling -------------------------------------------------

    def at(self, time: float, label: str,
           action: Callable[[], None]) -> "NemesisPlan":
        """Schedule ``action()`` at simulated ``time``."""
        self._events.append((time, len(self._events), label, action))
        return self

    def _faults(self):
        return self.cluster.network.install_faults()

    # -- link state ---------------------------------------------------------

    def partition(self, at: float, side_a: Iterable[str],
                  side_b: Iterable[str],
                  symmetric: bool = True) -> "NemesisPlan":
        side_a, side_b = sorted(side_a), sorted(side_b)
        kind = "partition" if symmetric else "asymmetric partition"
        return self.at(
            at, f"{kind} {side_a} | {side_b}",
            lambda: self._faults().partition(side_a, side_b,
                                             symmetric=symmetric))

    def heal_partition(self, at: float, side_a: Iterable[str],
                       side_b: Iterable[str]) -> "NemesisPlan":
        side_a, side_b = sorted(side_a), sorted(side_b)
        return self.at(
            at, f"heal partition {side_a} | {side_b}",
            lambda: self._faults().heal_partition(side_a, side_b))

    def block(self, at: float, src: str, dst: str) -> "NemesisPlan":
        return self.at(at, f"block {src} -> {dst}",
                       lambda: self._faults().block(src, dst))

    def unblock(self, at: float, src: str, dst: str) -> "NemesisPlan":
        return self.at(at, f"unblock {src} -> {dst}",
                       lambda: self._faults().unblock(src, dst))

    def set_loss(self, at: float, probability: float,
                 src: Optional[str] = None,
                 dst: Optional[str] = None) -> "NemesisPlan":
        where = f"{src} -> {dst}" if src else "all links"
        return self.at(
            at, f"loss {probability:g} on {where}",
            lambda: self._faults().set_loss(probability, src, dst))

    def clear_loss(self, at: float) -> "NemesisPlan":
        return self.at(at, "clear loss",
                       lambda: self._faults().clear_loss())

    def latency_spike(self, at: float, extra: float,
                      src: Optional[str] = None,
                      dst: Optional[str] = None) -> "NemesisPlan":
        where = f"{src} -> {dst}" if src else "all links"
        return self.at(
            at, f"latency +{extra:g}s on {where}",
            lambda: self._faults().set_extra_latency(extra, src, dst))

    def clear_latency_spike(self, at: float) -> "NemesisPlan":
        return self.at(at, "clear latency spikes",
                       lambda: self._faults().clear_extra_latency())

    def heal_all(self, at: float) -> "NemesisPlan":
        """Clear every link fault (partitions, loss, spikes) at once."""
        return self.at(at, "heal all link faults",
                       lambda: self._faults().heal())

    # -- crashes ------------------------------------------------------------

    def pause(self, at: float, node: str) -> "NemesisPlan":
        """Cut ``node``'s links; its volatile state survives."""
        return self.at(at, f"pause {node}",
                       lambda: self.cluster.pause_server(node))

    def unpause(self, at: float, node: str) -> "NemesisPlan":
        return self.at(at, f"unpause {node}",
                       lambda: self.cluster.unpause_server(node))

    def crash(self, at: float, node: str) -> "NemesisPlan":
        """Fail-stop ``node``: its volatile state is wiped and it only
        comes back via :meth:`restart`."""
        return self.at(at, f"crash {node}",
                       lambda: self.cluster.crash_server(node))

    def restart(self, at: float, node: str) -> "NemesisPlan":
        """Begin an amnesia-crashed node's restart protocol. The spawned
        restart Process is appended to :attr:`restarts` so drivers can
        wait for recovery to actually finish."""
        def action() -> None:
            self.restarts.append(self.cluster.restart_server(node))
        return self.at(at, f"restart {node}", action)

    def recover(self, at: float, node: str) -> "NemesisPlan":
        """State-routed recovery: unpause a paused node, restart a
        crashed one, leave an already-recovering or healthy node alone.
        For scripts that do not care which failure hit the node."""
        def action() -> None:
            state = self.cluster.server_state(node)
            if state == "paused":
                self.cluster.unpause_server(node)
            elif state == "crashed":
                self.restarts.append(self.cluster.restart_server(node))
            # "recovering" and "up" need nothing.
        return self.at(at, f"recover {node}", action)

    # -- clock anomalies ----------------------------------------------------

    def _clock(self, clock_name: str):
        return self.cluster.clock_ensemble.clock_for(clock_name)

    def clock_step(self, at: float, clock_name: str,
                   offset: float) -> "NemesisPlan":
        return self.at(at, f"clock step {offset:+g}s on {clock_name}",
                       lambda: self._clock(clock_name).step(offset))

    def clock_drift(self, at: float, clock_name: str,
                    rate: float) -> "NemesisPlan":
        return self.at(at, f"clock drift {rate:+g}s/s on {clock_name}",
                       lambda: self._clock(clock_name).set_drift(rate))

    def clock_spike(self, at: float, clock_name: str, amplitude: float,
                    duration: float) -> "NemesisPlan":
        return self.at(
            at, f"clock spike {amplitude:+g}s/{duration:g}s on "
                f"{clock_name}",
            lambda: self._clock(clock_name).spike(amplitude, duration))

    def clear_clock(self, at: float, clock_name: str) -> "NemesisPlan":
        return self.at(at, f"clear clock anomalies on {clock_name}",
                       lambda: self._clock(clock_name).clear())

    # -- execution ----------------------------------------------------------

    @property
    def end_time(self) -> float:
        """The instant of the last scheduled event."""
        return max((at for at, _, _, _ in self._events), default=0.0)

    def start(self) -> Process:
        """Begin executing the schedule; returns the driver process."""
        return self.cluster.sim.process(self._run())

    def _run(self):
        sim = self.cluster.sim
        for at, _, label, action in sorted(self._events,
                                           key=lambda e: (e[0], e[1])):
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            action()
            self.timeline.append((sim.now, label))


# -- named nemesis plans ----------------------------------------------------
#
# Every builder has the signature of a scenario-table row
# (:data:`repro.harness.nemesis.SCENARIOS`):
# ``(cluster, rng, start, duration, plan=None)`` — ``rng`` seeds whatever
# the builder draws, ``plan`` lets several builders compose onto one
# schedule.


def _plan(cluster: Cluster, plan: Optional[NemesisPlan],
          name: str) -> NemesisPlan:
    return plan if plan is not None else NemesisPlan(cluster, name=name)


def partition_primary_from_backups(
    cluster: Cluster,
    rng: SeededRng,
    start: float,
    duration: float,
    plan: Optional[NemesisPlan] = None,
    shard_name: str = "shard0",
    asymmetric: bool = False,
) -> NemesisPlan:
    """Cut a shard's primary off from its backups.

    ``asymmetric=True`` blocks only the primary->backup direction:
    clients still reach the primary and backups can still talk *to* it,
    but its replication and lease-renewal traffic never arrives — the
    scenario that distinguishes UNKNOWN prepare outcomes from ABORTs.
    """
    shard = cluster.directory.shard(shard_name)
    primary, backups = shard.primary, \
        [r for r in shard.replicas if r != shard.primary]
    plan = _plan(cluster, plan, f"partition-{shard_name}-primary")
    plan.partition(start, [primary], backups, symmetric=not asymmetric)
    plan.heal_partition(start + duration, [primary], backups)
    return plan


def isolate_master(
    cluster: Cluster,
    rng: SeededRng,
    start: float,
    duration: float,
    plan: Optional[NemesisPlan] = None,
) -> NemesisPlan:
    """Cut the global master off from every storage server, so failure
    detection and failover run blind for a window."""
    if cluster.master is None:
        raise ValueError("cluster has no master to isolate")
    servers = sorted(cluster.servers)
    master = cluster.master.name
    plan = _plan(cluster, plan, "isolate-master")
    plan.partition(start, [master], servers)
    plan.heal_partition(start + duration, [master], servers)
    return plan


def majority_minority_split(
    cluster: Cluster,
    rng: SeededRng,
    start: float,
    duration: float,
    plan: Optional[NemesisPlan] = None,
) -> NemesisPlan:
    """Split every shard's replicas majority/minority; clients and the
    primary-bearing majority side stay connected."""
    plan = _plan(cluster, plan, "majority-minority-split")
    majority: List[str] = []
    minority: List[str] = []
    for shard_name in cluster.directory.shard_names:
        shard = cluster.directory.shard(shard_name)
        keep = shard.fault_tolerance + 1
        ordered = [shard.primary] + [r for r in shard.replicas
                                     if r != shard.primary]
        majority.extend(ordered[:keep])
        minority.extend(ordered[keep:])
    if minority:
        plan.partition(start, majority, minority)
        plan.heal_partition(start + duration, majority, minority)
    return plan


#: The clock storm: how many skew spikes, how large, how long each.
_CLOCK_STORM_SPIKES = 8
_CLOCK_STORM_AMPLITUDE = 2e-3
_CLOCK_STORM_SPIKE_DURATION = 5e-3


def clock_storm(
    cluster: Cluster,
    rng: SeededRng,
    start: float,
    duration: float,
    plan: Optional[NemesisPlan] = None,
) -> NemesisPlan:
    """A SeededRng-scheduled storm of skew spikes across client clocks.

    Each spike hits one rng-chosen client clock at an rng-drawn instant
    in ``[start, start + duration)``, with alternating sign so clocks
    diverge in both directions.
    """
    plan = _plan(cluster, plan, "clock-storm")
    clock_names = [f"client-{i}"
                   for i in range(cluster.config.num_clients)]
    if not clock_names:
        return plan
    for index in range(_CLOCK_STORM_SPIKES):
        at = start + rng.random() * duration
        name = rng.choice(clock_names)
        sign = 1.0 if index % 2 == 0 else -1.0
        plan.clock_spike(at, name, sign * _CLOCK_STORM_AMPLITUDE,
                         _CLOCK_STORM_SPIKE_DURATION)
    return plan


def loss_storm(
    cluster: Cluster,
    rng: SeededRng,
    start: float,
    duration: float,
    plan: Optional[NemesisPlan] = None,
    probability: float = 0.05,
) -> NemesisPlan:
    """Uniform probabilistic message loss on every link for a window."""
    plan = _plan(cluster, plan, "loss-storm")
    plan.set_loss(start, probability)
    plan.clear_loss(start + duration)
    return plan


def largest_connected_majority(network: Network,
                               nodes: Sequence[str]) -> int:
    """Size of the largest mutually communicating component of
    ``nodes`` (bidirectional :meth:`Network.can_communicate` edges)."""
    best = 0
    seen: set = set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        stack, size = [root], 0
        while stack:
            current = stack.pop()
            size += 1
            for other in nodes:
                if other in seen:
                    continue
                if network.can_communicate(current, other) \
                        and network.can_communicate(other, current):
                    seen.add(other)
                    stack.append(other)
        best = max(best, size)
    return best


class ChaosMonkey:
    """Randomized rolling backup failures that never break quorums.

    ``amnesia=False`` (default) pauses victims and unpauses them after
    ``downtime`` — the historical behaviour. ``amnesia=True`` crashes
    them for real: volatile state wiped, revival via the full restart
    protocol (WAL replay + catch-up), which the monkey waits out before
    counting the node as back.
    """

    def __init__(
        self,
        cluster: Cluster,
        rng: SeededRng,
        interval: float = 50e-3,
        downtime: float = 30e-3,
        include_primaries: bool = False,
        amnesia: bool = False,
    ) -> None:
        if downtime >= interval:
            raise ValueError(
                f"downtime {downtime} must be < interval {interval} so "
                "failures do not overlap unboundedly")
        self.cluster = cluster
        self.rng = rng
        self.interval = interval
        self.downtime = downtime
        self.include_primaries = include_primaries
        self.amnesia = amnesia
        self.kills: List[Tuple[float, str]] = []
        self._down: set = set()
        self._daemon: Optional[Process] = None

    def start(self) -> Process:
        if self._daemon is None:
            self._daemon = self.cluster.sim.process(self._loop())
        return self._daemon

    # -- victim selection ---------------------------------------------------

    def _quorum_safe(self, node: str) -> bool:
        """Would crashing ``node`` leave every shard with a *connected*
        majority?

        Counting non-crashed replicas is not enough once link faults
        exist: a replica on the wrong side of a partition cannot ack
        replication, so only the largest mutually communicating
        component counts toward the majority. Likewise a paused,
        amnesia-crashed, or still-recovering replica
        (``Cluster.is_serving``) contributes nothing.
        """
        directory = self.cluster.directory
        network = self.cluster.network
        for shard_name in directory.shard_names:
            shard = directory.shard(shard_name)
            if node not in shard.replicas:
                continue
            alive = [
                replica for replica in shard.replicas
                if replica != node and replica not in self._down
                and self.cluster.is_serving(replica)
                and not network.is_crashed(replica)
            ]
            if largest_connected_majority(network, alive) \
                    < shard.fault_tolerance + 1:
                return False
        return True

    def _candidates(self) -> Sequence[str]:
        directory = self.cluster.directory
        primaries = set(directory.all_primaries())
        nodes = []
        for node in directory.all_servers():
            if node in self._down:
                continue
            if not self.cluster.is_serving(node):
                continue
            if not self.include_primaries and node in primaries:
                continue
            if self._quorum_safe(node):
                nodes.append(node)
        return nodes

    # -- the loop -------------------------------------------------------------

    def _loop(self):
        sim = self.cluster.sim
        while True:
            yield sim.timeout(self.interval)
            candidates = self._candidates()
            if not candidates:
                continue
            victim = self.rng.choice(list(candidates))
            self._down.add(victim)
            if self.amnesia:
                self.cluster.crash_server(victim)
            else:
                self.cluster.pause_server(victim)
            self.kills.append((sim.now, victim))
            sim.process(self._revive(victim))

    def _revive(self, node: str):
        yield self.cluster.sim.timeout(self.downtime)
        if self.amnesia:
            # Down until the restart protocol actually finishes — an
            # amnesia-crashed node with an empty store is not a quorum
            # member just because its links are back.
            yield self.cluster.restart_server(node)
        else:
            self.cluster.unpause_server(node)
        self._down.discard(node)
