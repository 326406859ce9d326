"""Generic Retwis-over-cluster experiment runner.

Most figures share a skeleton: build a cluster, hang one Retwis instance
off each client, run warmup, measure a window, aggregate. This module is
that skeleton; :mod:`repro.harness.experiments` parameterizes it per
table/figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..workloads.retwis import RetwisInstance
from .cluster import Cluster, ClusterConfig
from .metrics import WindowMetrics, snapshot, window_metrics

__all__ = ["RetwisRunResult", "run_retwis_on_cluster"]


@dataclass
class RetwisRunResult:
    """Everything a figure needs from one (configuration, α) run."""

    metrics: WindowMetrics
    cluster: Cluster
    instances: List[RetwisInstance]

    @property
    def abort_rate(self) -> float:
        return self.metrics.abort_rate

    @property
    def throughput(self) -> float:
        return self.metrics.throughput

    @property
    def mean_latency(self) -> float:
        return self.metrics.mean_latency


def run_retwis_on_cluster(
    config: ClusterConfig,
    alpha: float,
    duration: float,
    warmup: float = 0.1,
    mix: Optional[list] = None,
    watermark_interval: Optional[float] = 0.05,
) -> RetwisRunResult:
    """Stand up a cluster, run Retwis on every client, measure a window."""
    cluster = Cluster(config)
    sim = cluster.sim
    instances = [
        RetwisInstance(
            sim, client, cluster.populated_keys,
            cluster.rng.substream(f"retwis-{client.client_id}"),
            alpha=alpha, mix=mix)
        for client in cluster.clients
    ]
    if watermark_interval:
        for client in cluster.clients:
            client.start_watermark_daemon(watermark_interval)
    deadline = sim.now + warmup + duration
    procs = [instance.run(warmup + duration) for instance in instances]
    sim.run(until=sim.now + warmup)
    before = snapshot(sim.now, cluster.clients, cluster.network)
    sim.run(until=deadline)
    after = snapshot(sim.now, cluster.clients, cluster.network)
    # Let in-flight transactions drain so no process errors linger.
    for proc in procs:
        sim.run_until_event(proc)
    return RetwisRunResult(
        metrics=window_metrics(before, after),
        cluster=cluster,
        instances=instances,
    )
