"""Scripted and randomized failure injection.

Recovery code that is only exercised by hand-built scenarios rots; a
chaos schedule keeps it honest. :class:`NemesisPlan` is the fault DSL:
partitions (symmetric and asymmetric), probabilistic link loss,
duplicate delivery, clock skew spikes, link-level pauses (the node's
memory survives) and amnesia crashes, all scheduled at exact instants
and recorded on a fault-event timeline. Named builders
(:func:`partition_primary_from_backups`, :func:`isolate_master`,
:func:`majority_minority_split`, :func:`clock_storm`,
:func:`loss_storm`, :func:`dup_storm`, :func:`rolling_chaos`) compose
onto one plan via their ``plan=`` argument; SeededRng-drawn schedules
keep every run reproducible. :func:`rolling_chaos` is the randomized
one: every interval it fails a random node that no quorum depends on
(partitions count) and revives it after ``downtime``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..net.network import Network
from ..sim.process import Process
from ..sim.rng import SeededRng
from .cluster import Cluster

__all__ = [
    "NemesisPlan",
    "largest_connected_majority",
    "partition_primary_from_backups",
    "isolate_master",
    "majority_minority_split",
    "clock_storm",
    "loss_storm",
    "dup_storm",
    "rolling_chaos",
]


class NemesisPlan:
    """A deterministic script of fault inject/heal events.

    Every event is scheduled at an exact simulated instant and recorded
    on :attr:`timeline` when it fires, so a run's fault history can be
    reported next to its metrics. The verbs are those the scenario rows
    use: link state (:meth:`partition` / :meth:`set_loss` /
    :meth:`set_duplicate` and their heals), clock skew
    (:meth:`clock_spike`), pauses and amnesia crashes. Anything else is
    one :meth:`at` call away.
    """

    def __init__(self, cluster: Cluster, name: str = "nemesis") -> None:
        self.cluster = cluster
        self.name = name
        self._events: List[
            Tuple[float, int, Optional[str], Callable[[], object]]] = []
        #: (time, description) of every fault event that has fired.
        self.timeline: List[Tuple[float, str]] = []
        #: Restart Processes spawned by :meth:`restart` (and by
        #: :func:`rolling_chaos`), so a driver can wait for the recovery
        #: protocols to finish.
        self.restarts: List[Process] = []

    # -- generic scheduling -------------------------------------------------

    def at(self, time: float, label: Optional[str],
           action: Callable[[], object]) -> "NemesisPlan":
        """Schedule ``action()`` at simulated ``time``.

        ``label`` is what the timeline records when the event fires. An
        event whose subject is chosen at fire time passes ``None`` and
        returns its own label, or ``None`` to record nothing.
        """
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

    def set_duplicate(self, at: float, probability: float) -> "NemesisPlan":
        return self.at(
            at, f"duplicate {probability:g} on all links",
            lambda: self._faults().set_duplicate(probability))

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

    # -- clock anomalies ----------------------------------------------------

    def _clock(self, clock_name: str):
        return self.cluster.clock_ensemble.clock_for(clock_name)

    def clock_spike(self, at: float, clock_name: str, amplitude: float,
                    duration: float) -> "NemesisPlan":
        return self.at(
            at, f"clock spike {amplitude:+g}s/{duration:g}s on "
                f"{clock_name}",
            lambda: self._clock(clock_name).spike(amplitude, duration))

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
            fired = action()
            if label is None:
                label = fired
            if label is not None:
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


# Share of messages :func:`dup_storm` delivers twice.
_DUP_STORM_PROBABILITY = 0.3


def dup_storm(
    cluster: Cluster,
    rng: SeededRng,
    start: float,
    duration: float,
    plan: Optional[NemesisPlan] = None,
) -> NemesisPlan:
    """Duplicate delivery on every link for a window: the servers'
    in-flight coalescing must keep every put and prepare at most once."""
    plan = _plan(cluster, plan, "dup-storm")
    plan.set_duplicate(start, _DUP_STORM_PROBABILITY)
    plan.set_duplicate(start + duration, 0.0)
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


def rolling_chaos(
    cluster: Cluster,
    rng: SeededRng,
    start: float,
    duration: float,
    plan: Optional[NemesisPlan] = None,
    interval: float = 25e-3,
    downtime: float = 12e-3,
    amnesia: bool = False,
) -> NemesisPlan:
    """Randomized rolling failures that never break a quorum.

    Every ``interval`` from ``start`` until ``start + duration`` a tick
    draws a victim with ``rng`` among the nodes that :func:`_may_fail`
    and pauses it, or amnesia-crashes it when ``amnesia`` is set;
    ``downtime`` later it is unpaused, or restarted into
    ``plan.restarts``. A tick with no such node records nothing.
    """
    if downtime >= interval:
        raise ValueError(
            f"downtime {downtime} must be < interval {interval} so "
            "failures do not overlap unboundedly")
    plan = _plan(cluster, plan, "chaos-amnesia" if amnesia else "chaos")
    # One-slot handoff of this tick's victim to its revive: another
    # event of a composed plan may also have a node down.
    victim_slot: List[str] = []

    def kill() -> Optional[str]:
        candidates = [node for node in cluster.directory.all_servers()
                      if _may_fail(cluster, node)]
        if not candidates:
            return None
        victim = rng.choice(candidates)
        victim_slot.append(victim)
        if amnesia:
            cluster.crash_server(victim)
            return f"crash {victim}"
        cluster.pause_server(victim)
        return f"pause {victim}"

    def revive() -> Optional[str]:
        if not victim_slot:
            return None
        victim = victim_slot.pop()
        if amnesia:
            plan.restarts.append(cluster.restart_server(victim))
            return f"restart {victim}"
        cluster.unpause_server(victim)
        return f"unpause {victim}"

    tick = 0
    while tick * interval < duration:
        plan.at(start + tick * interval, None, kill)
        plan.at(start + tick * interval + downtime, None, revive)
        tick += 1
    return plan


def _may_fail(cluster: Cluster, node: str) -> bool:
    """Can ``node`` fail now without breaking a quorum?

    It must be serving (a primary only when a master runs to fail it
    over), and each shard it replicates must keep a *connected*
    majority of serving replicas without it: partitions count.
    """
    directory = cluster.directory
    network = cluster.network
    if not cluster.is_serving(node) or network.is_crashed(node):
        return False
    if cluster.master is None and node in directory.all_primaries():
        return False
    for shard_name in directory.shard_names:
        shard = directory.shard(shard_name)
        if node not in shard.replicas:
            continue
        alive = [replica for replica in shard.replicas
                 if replica != node and cluster.is_serving(replica)
                 and not network.is_crashed(replica)]
        if largest_connected_majority(network, alive) \
                < shard.fault_tolerance + 1:
            return False
    return True
