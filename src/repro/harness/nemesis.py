"""Audit cells: one spec names a run, :func:`run_spec` runs and audits it.

1. Stand up the workload row's deployment (:data:`WORKLOADS`) on the
   spec's backend and clock, with history-recording clients. Policy
   ``fifo`` runs the production kernel; ``random`` runs
   :class:`~repro.sim.tiebreak.TracedSimulator` with tie-break seed
   ``seed * 10000 + trial``.
2. Start the scenario's :class:`~repro.harness.chaos.NemesisPlan`
   (:data:`SCENARIOS`; ``none`` injects nothing) and the load together.
3. After the load window heal **everything** (link faults, crashed
   nodes, clock anomalies), wait out every restart and, when the
   deployment runs CTP, settle past the lease and three CTP timeouts.
4. Run :func:`~repro.harness.audit.sync_replicas`, then
   :func:`~repro.harness.audit.run_audit`.

An :class:`AuditSpec` renders to one replay string,
``scenario:workload:backend:clock:policy:trial:seed``, and parses back
from it; a failing cell's summary ends with the ``repro audit
--replay`` command that reruns it. The spec's seed seeds the cluster
unless the workload row pins the deployment seed, as the smoke rows do
so that their trials vary only the schedule. A scenario row's ``build``
takes ``(cluster, rng, start, duration)`` and returns an unstarted
plan: the builders of :mod:`repro.harness.chaos` are rows as they
stand, the composite scenarios are the functions below.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, List, Mapping, Optional, Tuple

from ..clocks.skew import CLOCK_PRESETS
from ..durability import DurabilityConfig
from ..milana.client import MilanaClient
from ..milana.leases import DEFAULT_LEASE_DURATION
from ..milana.server import DEFAULT_CTP_TIMEOUT
from ..net.faults import FaultStats
from ..sim.tiebreak import POLICY_NAMES, TracedSimulator, make_policy
from ..workloads.retwis import RetwisInstance
from ..workloads.ycsb import YcsbInstance
from .audit import AuditReport, run_audit, sync_replicas
from .chaos import (
    NemesisPlan,
    clock_storm,
    dup_storm,
    isolate_master,
    loss_storm,
    majority_minority_split,
    partition_primary_from_backups,
    rolling_chaos,
)
from .cluster import BACKEND_KINDS, Cluster, ClusterConfig
from .metrics import WindowMetrics, snapshot, window_metrics

__all__ = [
    "AuditRun",
    "AuditSpec",
    "SCENARIOS",
    "Scenario",
    "WORKLOADS",
    "Workload",
    "default_policy",
    "history_client_factory",
    "nemesis_config",
    "run_spec",
]


def _combo(cluster, rng, start, duration):
    """Partition + message loss + clock storm, overlapping."""
    plan = NemesisPlan(cluster, name="combo")
    partition_primary_from_backups(
        cluster, rng, start, duration, plan=plan, asymmetric=True)
    loss_storm(cluster, rng, start + duration * 0.25, duration * 0.5,
               plan=plan, probability=0.02)
    clock_storm(cluster, rng, start, duration, plan=plan)
    return plan


def _crash_restart(cluster, rng, start, duration):
    """Amnesia-crash shard0's primary mid-workload (prepares will be in
    flight), restart it later in the window: WAL replay + Algorithm 2
    must reconstruct every acked transaction."""
    primary = cluster.directory.shard("shard0").primary
    plan = NemesisPlan(cluster, name="crash-restart")
    plan.crash(start, primary)
    plan.restart(start + duration * 0.5, primary)
    return plan


def _coordinator_crash(cluster, rng, start, duration):
    """Silence a coordinator client mid-run: transactions it prepared
    but never decided go in-doubt, and CTP must terminate them."""
    victim = cluster.clients[0].name
    plan = NemesisPlan(cluster, name="coordinator-crash")
    plan.at(start, f"crash coordinator {victim}",
            lambda: cluster.network.crash(victim))
    plan.at(start + duration, f"recover coordinator {victim}",
            lambda: cluster.network.recover(victim))
    return plan


def _rolling_restart(cluster, rng, start, duration):
    """Crash-and-restart every backup, one per shard at a time,
    interleaved across shards so no shard ever loses its majority."""
    plan = NemesisPlan(cluster, name="rolling-restart")
    per_shard = []
    for shard_name in sorted(cluster.directory.shard_names):
        shard = cluster.directory.shard(shard_name)
        per_shard.append([replica for replica in shard.replicas
                          if replica != shard.primary])
    order = [node for wave in zip(*per_shard) for node in wave]
    step = duration / max(1, len(order))
    for index, node in enumerate(order):
        at = start + index * step
        plan.crash(at, node)
        plan.restart(at + step * 0.5, node)
    return plan


def _crash_during_recovery(cluster, rng, start, duration):
    """Double fault: the restarted primary is crashed again while its
    recovery (replay / merge / lease wait) is still running, then
    restarted once more."""
    primary = cluster.directory.shard("shard0").primary
    plan = NemesisPlan(cluster, name="crash-during-recovery")
    plan.crash(start, primary)
    plan.restart(start + duration * 0.2, primary)
    # Recovery includes a full lease wait, so this lands mid-recovery.
    plan.crash(start + duration * 0.4, primary)
    plan.restart(start + duration * 0.6, primary)
    return plan


def _crash_partition(cluster, rng, start, duration):
    """An amnesia crash in shard0 overlapping a partition in shard1:
    recovery must proceed while the other shard is degraded (the CTP
    cross-shard queries see both failure modes at once)."""
    primary0 = cluster.directory.shard("shard0").primary
    plan = NemesisPlan(cluster, name="crash-partition")
    plan.crash(start, primary0)
    partition_primary_from_backups(
        cluster, rng, start, duration * 0.7, plan=plan,
        shard_name="shard1")
    plan.restart(start + duration * 0.5, primary0)
    return plan


@dataclass(frozen=True)
class Scenario:
    """One row of the scenario table."""

    name: str
    #: ``build(cluster, rng, start, duration)`` returns the unstarted
    #: :class:`~repro.harness.chaos.NemesisPlan`.
    build: Callable[..., NemesisPlan]
    #: The scenario acts on the global master, so the deployment must
    #: have one (``ClusterConfig.with_master``).
    needs_master: bool = False


#: The scenario table; row names are the CLI's choices.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("partition", partition_primary_from_backups),
    Scenario("asymmetric-partition",
             partial(partition_primary_from_backups, asymmetric=True)),
    Scenario("majority-minority", majority_minority_split),
    Scenario("isolate-master", isolate_master, needs_master=True),
    Scenario("clock-storm", clock_storm),
    Scenario("loss-storm", loss_storm),
    Scenario("combo", _combo),
    Scenario("crash-restart", _crash_restart),
    Scenario("coordinator-crash", _coordinator_crash),
    Scenario("rolling-restart", _rolling_restart),
    Scenario("crash-during-recovery", _crash_during_recovery),
    Scenario("crash-partition", _crash_partition),
    Scenario("chaos", rolling_chaos),
    Scenario("chaos-amnesia", partial(rolling_chaos, amnesia=True)),
    Scenario("dup-storm", dup_storm),
)


def _retwis(cluster: Cluster, alpha: float) -> list:
    return [
        RetwisInstance(
            cluster.sim, client, cluster.populated_keys,
            cluster.rng.substream(f"retwis-{client.client_id}"),
            alpha=alpha)
        for client in cluster.clients
    ]


def _ycsb(cluster: Cluster, alpha: float, mix: str = "B",
          stream: str = "ycsb-") -> list:
    return [
        YcsbInstance(
            cluster.sim, client, cluster.populated_keys,
            cluster.rng.substream(f"{stream}{client.client_id}"),
            workload=mix, alpha=alpha)
        for client in cluster.clients
    ]


@dataclass(frozen=True)
class Workload:
    """One row of the workload table: a deployment and the load it runs."""

    name: str
    #: ``load(cluster)`` returns one unstarted instance per client, each
    #: with ``run(duration)``.
    load: Callable[[Cluster], list]
    #: Seconds of simulated load, and the fault window inside it.
    duration: float
    fault_start: float
    fault_duration: float
    #: Client watermark report interval; None sends no reports.
    watermark_interval: Optional[float] = 0.05
    #: ``ClusterConfig`` fields over :func:`nemesis_config`.
    config: Mapping[str, Any] = field(default_factory=dict)


#: The smoke deployment: one 3-replica shard, 3 clients, no CTP daemon
#: and no WAL, small enough for many schedules per second.
_SMOKE = dict(num_shards=1, num_clients=3, populate_keys=120,
              ctp_timeout=None, durability=None)

#: The workload table; row names are the spec's workload choices. The
#: smoke rows keep the substream names and seeds they were recorded
#: with, so their schedules replay.
WORKLOADS: Tuple[Workload, ...] = (
    Workload("retwis", partial(_retwis, alpha=0.8), duration=0.3,
             fault_start=0.05, fault_duration=0.15),
    Workload("ycsb", partial(_ycsb, alpha=0.8), duration=0.3,
             fault_start=0.05, fault_duration=0.15),
    Workload("retwis-smoke", partial(_retwis, alpha=0.9), duration=0.025,
             fault_start=0.005, fault_duration=0.01,
             config=dict(_SMOKE, seed=11)),
    Workload("ycsb-smoke", partial(_ycsb, alpha=0.99, mix="A",
                                   stream="ycsb"),
             duration=0.02, fault_start=0.005, fault_duration=0.01,
             watermark_interval=None, config=dict(_SMOKE, seed=13)),
)


def default_policy(trial: int) -> str:
    """Trial 0 is the production schedule; the rest draw at random."""
    return "fifo" if trial == 0 else "random"


def _choices(kind: str, value: str, names) -> None:
    if value not in names:
        raise ValueError(f"unknown {kind} {value!r}; choose from "
                         f"{sorted(names)}")


@dataclass(frozen=True)
class AuditSpec:
    """Everything needed to rerun one audit cell deterministically."""

    scenario: str
    workload: str = "retwis"
    backend: str = "dram"
    clock: str = "perfect"
    policy: str = "fifo"
    trial: int = 0
    seed: int = 42

    def __post_init__(self) -> None:
        _choices("scenario", self.scenario,
                 ["none"] + [row.name for row in SCENARIOS])
        _choices("workload", self.workload, [row.name for row in WORKLOADS])
        _choices("backend", self.backend, BACKEND_KINDS)
        _choices("clock", self.clock, CLOCK_PRESETS)
        _choices("policy", self.policy, POLICY_NAMES)
        if self.trial < 0:
            raise ValueError(f"trial must be >= 0, got {self.trial}")

    @property
    def policy_seed(self) -> int:
        """The tie-break seed, derived from the seed and the trial."""
        return self.seed * 10_000 + self.trial

    def render(self) -> str:
        return ":".join(str(getattr(self, f.name)) for f in fields(self))

    @classmethod
    def parse(cls, text: str) -> "AuditSpec":
        """Parse a replay string; raises ``ValueError`` on a bad one."""
        parts = text.split(":")
        if len(parts) != 7:
            raise ValueError(
                f"bad audit spec {text!r}; expected "
                "scenario:workload:backend:clock:policy:trial:seed")
        *names, trial, seed = parts
        try:
            numbers = {"trial": int(trial), "seed": int(seed)}
        except ValueError:
            raise ValueError(f"bad audit spec {text!r}: trial and seed "
                             "must be integers") from None
        return cls(*names, **numbers)


@dataclass
class AuditRun:
    """One cell: what was injected, what survived, what held."""

    spec: AuditSpec
    metrics: WindowMetrics
    audit: AuditReport
    cluster: Cluster
    #: The scenario's plan; None for scenario ``none``.
    plan: Optional[NemesisPlan]
    #: (time, description) of every fault and heal event that fired.
    timeline: List[Tuple[float, str]]
    fault_stats: Optional[FaultStats]
    records_synced: int

    @property
    def passed(self) -> bool:
        return self.audit.passed

    def summary(self) -> str:
        lines = [
            f"nemesis scenario: {self.spec.scenario} ({self.spec.workload})",
            "fault timeline:",
        ]
        for at, label in self.timeline:
            lines.append(f"  {at * 1e3:9.3f} ms  {label}")
        if self.fault_stats is not None:
            stats = self.fault_stats
            lines.append(
                f"link faults: blocked={stats.messages_blocked} "
                f"lost={stats.messages_lost}")
        metrics = self.metrics
        lines.append(
            f"workload: committed={metrics.committed} "
            f"aborted={metrics.aborted} "
            f"abort_rate={metrics.abort_rate:.3f} "
            f"throughput={metrics.throughput:.0f} txn/s")
        lines.append(f"repair: {self.records_synced} records synced "
                     "to backups")
        lines.append(self.audit.summary())
        if not self.passed:
            lines.append("replay: python -m repro audit --replay "
                         + self.spec.render())
        return "\n".join(lines)


def history_client_factory(sim, network, directory, clock, client_id,
                           local_validation):
    """A ``ClusterConfig.client_factory`` whose clients record the
    committed history :func:`~repro.harness.audit.run_audit` checks."""
    return MilanaClient(sim, network, directory, clock,
                        client_id=client_id,
                        local_validation=local_validation,
                        record_history=True)


def nemesis_config(**overrides) -> ClusterConfig:
    """The default audit deployment: 2 shards x 3 replicas, 4 clients,
    DRAM backend, CTP daemon on, history-recording clients, and durable
    per-server WALs (so amnesia-crash scenarios are survivable)."""
    defaults = dict(
        num_shards=2,
        replicas_per_shard=3,
        num_clients=4,
        backend="dram",
        clock_preset="perfect",
        seed=42,
        populate_keys=400,
        ctp_timeout=DEFAULT_CTP_TIMEOUT,
        client_factory=history_client_factory,
        durability=DurabilityConfig(),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _heal_everything(cluster: Cluster,
                     timeline: List[Tuple[float, str]]) -> List:
    """Clear every outstanding fault, whatever the plan left behind.

    Records each heal on ``timeline`` and returns the restart Processes
    still running or spawned for still-crashed servers: the caller must
    wait these out before auditing — an amnesia-crashed server is not
    healed until its WAL replay and rejoin protocol actually finish.
    """
    def healed(label: str) -> None:
        timeline.append((cluster.sim.now, f"post-run heal: {label}"))

    faults = cluster.network.faults
    if faults is not None and faults.active:
        faults.heal()
        healed("link faults")
    restarts = list(cluster.pending_restarts())
    for name in sorted(cluster.servers):
        state = cluster.server_state(name)
        if state == "paused":
            cluster.unpause_server(name)
            healed(f"unpause {name}")
        elif state == "crashed":
            restarts.append(cluster.restart_server(name))
            healed(f"restart {name}")
        elif state == "up" and cluster.network.is_crashed(name):
            # Link-cut outside the cluster's bookkeeping (a plan acting
            # on the network directly): reconnect it.
            cluster.network.recover(name)
            healed(f"reconnect {name}")
    for i, client in enumerate(cluster.clients):
        if cluster.network.is_crashed(client.name):
            cluster.network.recover(client.name)
            healed(f"reconnect {client.name}")
        clock = cluster.clock_ensemble.clock_for(f"client-{i}")
        if getattr(clock, "faulted", False):
            clock.clear()
            healed(f"clear clock client-{i}")
    return restarts




def _row(table, name: str):
    return next(row for row in table if row.name == name)


def run_spec(spec: AuditSpec) -> AuditRun:
    """Run one audit cell end to end and audit the aftermath."""
    workload = _row(WORKLOADS, spec.workload)
    scenario = (None if spec.scenario == "none"
                else _row(SCENARIOS, spec.scenario))
    overrides = {"seed": spec.seed, **workload.config,
                 "backend": spec.backend, "clock_preset": spec.clock}
    if scenario is not None and scenario.needs_master:
        overrides["with_master"] = True
    if spec.policy != "fifo":
        policy = make_policy(spec.policy, spec.policy_seed)
        overrides["simulator_factory"] = partial(TracedSimulator, policy)
    config = nemesis_config(**overrides)

    cluster = Cluster(config)
    silent = [client.name for client in cluster.clients
              if not client.record_history]
    if silent:
        # The audit reads the clients' recorded histories; without them
        # it would check nothing and pass.
        raise ValueError(
            f"audit clients must be built with record_history=True "
            f"(config.client_factory); not recording: {silent}")
    sim = cluster.sim
    base = sim.now

    instances = workload.load(cluster)
    if workload.watermark_interval:
        for client in cluster.clients:
            client.start_watermark_daemon(workload.watermark_interval)
    plan: Optional[NemesisPlan] = None
    timeline: List[Tuple[float, str]] = []
    horizon = workload.duration
    if scenario is not None:
        plan = scenario.build(
            cluster, cluster.rng.substream("nemesis"),
            base + workload.fault_start, workload.fault_duration)
        plan.start()
        timeline = plan.timeline
        horizon = max(horizon, plan.end_time + 1e-6)

    before = snapshot(sim.now, cluster.clients, cluster.network)
    procs = [instance.run(workload.duration) for instance in instances]
    sim.run(until=base + horizon)
    restarts = ([] if plan is None
                else [proc for proc in plan.restarts if proc.is_alive])
    restarts.extend(_heal_everything(cluster, timeline))
    for proc in procs:
        sim.run_until_event(proc)
    after = snapshot(sim.now, cluster.clients, cluster.network)

    # Every restart protocol must finish before the audit: a node that
    # never completed WAL replay + rejoin is a dead replica, not a
    # healed one. (All faults are gone, so these cannot be interrupted.)
    for proc in restarts:
        if proc.is_alive:
            sim.run_until_event(proc)

    if config.ctp_timeout is not None:
        # Settle past the lease horizon and several CTP rounds, so
        # nothing can legitimately still be in doubt when the audit runs.
        settle = DEFAULT_LEASE_DURATION + 3 * config.ctp_timeout
        sim.run(until=sim.now + settle)
    records_synced = sim.run_until_event(sync_replicas(cluster))

    faults = cluster.network.faults
    return AuditRun(
        spec=spec,
        metrics=window_metrics(before, after),
        audit=run_audit(cluster),
        cluster=cluster,
        plan=plan,
        timeline=list(timeline),
        fault_stats=faults.stats if faults is not None else None,
        records_synced=records_synced,
    )
