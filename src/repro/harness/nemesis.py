"""Named nemesis scenarios: fault plan + workload + heal + audit.

One :func:`run_nemesis` call is a complete robustness experiment:

1. stand up a cluster whose clients record committed histories
   (``MilanaClient(record_history=True)``) and whose CTP daemon is on;
2. start the scenario's :class:`~repro.harness.chaos.NemesisPlan` and a
   Retwis or YCSB workload side by side;
3. after the workload window, heal **everything** — link faults, crashed
   nodes, clock anomalies — and let the system settle past the lease
   duration and CTP timeout so termination has a fair chance to finish;
4. run the :func:`~repro.harness.audit.sync_replicas` repair pass and
   the full post-heal audit (:func:`~repro.harness.audit.run_audit`).

The result bundles the audit verdict with the run's window metrics, the
fault-event timeline, and the link-fault counters, so a report can show
*what was injected* next to *what the system guaranteed anyway*.

Scenarios are the rows of :data:`SCENARIOS` (the CLI's
``repro nemesis --scenario`` choices). A row's ``build`` takes
``(cluster, rng, start, duration)`` and returns an unstarted plan: the
named builders of :mod:`repro.harness.chaos` are rows as they stand, the
composite scenarios are the functions below.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional, Tuple

from ..durability import DurabilityConfig
from ..milana.client import MilanaClient
from ..milana.leases import DEFAULT_LEASE_DURATION
from ..milana.server import DEFAULT_CTP_TIMEOUT
from ..net.faults import FaultStats
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
from .cluster import Cluster, ClusterConfig
from .metrics import WindowMetrics, snapshot, window_metrics

__all__ = [
    "SCENARIOS",
    "Scenario",
    "NemesisRunResult",
    "history_client_factory",
    "nemesis_config",
    "run_nemesis",
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


@dataclass
class NemesisRunResult:
    """One scenario run: what was injected, what survived, what held."""

    scenario: str
    workload: str
    metrics: WindowMetrics
    audit: AuditReport
    cluster: Cluster
    plan: NemesisPlan
    #: (time, description) of every fault event that fired.
    timeline: List[Tuple[float, str]]
    fault_stats: Optional[FaultStats]
    records_synced: int

    @property
    def passed(self) -> bool:
        return self.audit.passed

    def summary(self) -> str:
        lines = [
            f"nemesis scenario: {self.scenario} ({self.workload})",
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
    """The default nemesis deployment: 2 shards x 3 replicas, 4 clients,
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


def _heal_everything(cluster: Cluster, plan: NemesisPlan) -> List:
    """Clear every outstanding fault, whatever the plan left behind.

    Returns the restart Processes it spawned for still-crashed servers
    (plus any the plan left in flight): the caller must wait these out
    before auditing — an amnesia-crashed server is not healed until its
    WAL replay and rejoin protocol actually finish.
    """
    sim = cluster.sim
    faults = cluster.network.faults
    if faults is not None and faults.active:
        faults.heal()
        plan.timeline.append((sim.now, "post-run heal: link faults"))
    restarts = [proc for proc in plan.restarts if proc.is_alive]
    restarts.extend(cluster.pending_restarts())
    for name in sorted(cluster.servers):
        state = cluster.server_state(name)
        if state == "paused":
            cluster.unpause_server(name)
            plan.timeline.append(
                (sim.now, f"post-run heal: unpause {name}"))
        elif state == "crashed":
            restarts.append(cluster.restart_server(name))
            plan.timeline.append(
                (sim.now, f"post-run heal: restart {name}"))
        elif state == "up" and cluster.network.is_crashed(name):
            # Link-cut outside the cluster's bookkeeping (a plan acting
            # on the network directly): reconnect it.
            cluster.network.recover(name)
            plan.timeline.append(
                (sim.now, f"post-run heal: reconnect {name}"))
    for i, client in enumerate(cluster.clients):
        if cluster.network.is_crashed(client.name):
            cluster.network.recover(client.name)
            plan.timeline.append(
                (sim.now, f"post-run heal: reconnect {client.name}"))
        clock = cluster.clock_ensemble.clock_for(f"client-{i}")
        if getattr(clock, "faulted", False):
            clock.clear()
            plan.timeline.append(
                (sim.now, f"post-run heal: clear clock client-{i}"))
    return restarts


def run_nemesis(
    scenario: str,
    config: Optional[ClusterConfig] = None,
    workload: str = "retwis",
    duration: float = 0.3,
    fault_start: float = 0.05,
    fault_duration: float = 0.15,
    alpha: float = 0.8,
) -> NemesisRunResult:
    """Run one named scenario end to end and audit the aftermath."""
    row = next((row for row in SCENARIOS if row.name == scenario), None)
    if row is None:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from "
            f"{sorted(row.name for row in SCENARIOS)}")
    if config is None:
        config = nemesis_config()
    if config.client_factory is None:
        config = replace(config, client_factory=history_client_factory)
    if config.ctp_timeout is None:
        config = replace(config, ctp_timeout=DEFAULT_CTP_TIMEOUT)
    if row.needs_master and not config.with_master:
        config = replace(config, with_master=True)
    # Settle past the lease horizon and several CTP rounds, so nothing
    # can legitimately still be in doubt when the audit runs.
    settle = DEFAULT_LEASE_DURATION + 3 * config.ctp_timeout

    cluster = Cluster(config)
    silent = [client.name for client in cluster.clients
              if not client.record_history]
    if silent:
        # The audit reads the clients' recorded histories; without them
        # it would check nothing and pass.
        raise ValueError(
            f"nemesis clients must be built with record_history=True "
            f"(config.client_factory); not recording: {silent}")
    sim = cluster.sim
    base = sim.now

    if workload == "retwis":
        instances = [
            RetwisInstance(
                sim, client, cluster.populated_keys,
                cluster.rng.substream(f"retwis-{client.client_id}"),
                alpha=alpha)
            for client in cluster.clients
        ]
    elif workload == "ycsb":
        instances = [
            YcsbInstance(
                sim, client, cluster.populated_keys,
                cluster.rng.substream(f"ycsb-{client.client_id}"),
                alpha=alpha)
            for client in cluster.clients
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for client in cluster.clients:
        client.start_watermark_daemon(0.05)

    plan = row.build(
        cluster, cluster.rng.substream("nemesis"),
        base + fault_start, fault_duration)
    plan.start()

    before = snapshot(sim.now, cluster.clients, cluster.network)
    procs = [instance.run(duration) for instance in instances]
    sim.run(until=base + max(duration, plan.end_time + 1e-6))
    restarts = _heal_everything(cluster, plan)
    for proc in procs:
        sim.run_until_event(proc)
    after = snapshot(sim.now, cluster.clients, cluster.network)

    # Every restart protocol must finish before the audit: a node that
    # never completed WAL replay + rejoin is a dead replica, not a
    # healed one. (All faults are gone, so these cannot be interrupted.)
    for proc in restarts:
        if proc.is_alive:
            sim.run_until_event(proc)

    sim.run(until=sim.now + settle)
    records_synced = sim.run_until_event(sync_replicas(cluster))
    audit = run_audit(cluster)

    faults = cluster.network.faults
    return NemesisRunResult(
        scenario=scenario,
        workload=workload,
        metrics=window_metrics(before, after),
        audit=audit,
        cluster=cluster,
        plan=plan,
        timeline=list(plan.timeline),
        fault_stats=faults.stats if faults is not None else None,
        records_synced=records_synced,
    )
