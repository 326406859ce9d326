"""Workloads the schedule explorer runs.

Each workload is a callable taking a ``simulator_factory`` (producing
the trial's :class:`~repro.sansim.kernel.TracedSimulator`), running one
bounded, deterministic protocol exercise under it, and returning the
cluster for the audit. Clients record their committed history, so
:func:`~repro.harness.audit.run_audit` has something to check.

* ``retwis`` / ``ycsb`` — smoke-scale versions of the protocol
  workloads CI fingerprints (dram backend, 1x3 shard, 3 clients, ~20 ms
  of simulated time): enough prepare/decide/replicate traffic to
  exercise every protocol path while keeping 25 trials in budget.
* ``retwis-mftl`` — the ``retwis`` configuration on the ``mftl``
  backend, where the fractured read-only snapshot (EXPERIMENTS.md Known
  bug 1) shows. Not in the default set: it fails until that is fixed.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..harness.cluster import Cluster, ClusterConfig
from ..harness.nemesis import history_client_factory
from ..harness.runner import run_retwis_on_cluster
from ..sim.core import Simulator
from ..workloads import YcsbInstance

__all__ = [
    "DEFAULT_WORKLOADS",
    "WORKLOADS",
    "run_retwis_mftl_smoke",
    "run_retwis_smoke",
    "run_ycsb_smoke",
]

#: A trial's kernel factory: zero-arg, returns the (traced) simulator
#: every component of the exercised cluster shares.
_SimFactory = Callable[[], Simulator]


def _smoke_config(simulator_factory: _SimFactory, seed: int,
                  backend: str = "dram") -> ClusterConfig:
    return ClusterConfig(
        num_shards=1, replicas_per_shard=3, num_clients=3,
        backend=backend, clock_preset="ptp-sw", seed=seed,
        populate_keys=120, client_factory=history_client_factory,
        simulator_factory=simulator_factory)


def _retwis(simulator_factory: _SimFactory, backend: str) -> Cluster:
    return run_retwis_on_cluster(
        _smoke_config(simulator_factory, seed=11, backend=backend),
        alpha=0.9, duration=0.02, warmup=0.005).cluster


def run_retwis_smoke(simulator_factory: _SimFactory) -> Cluster:
    return _retwis(simulator_factory, "dram")


def run_retwis_mftl_smoke(simulator_factory: _SimFactory) -> Cluster:
    return _retwis(simulator_factory, "mftl")


def run_ycsb_smoke(simulator_factory: _SimFactory) -> Cluster:
    cluster = Cluster(_smoke_config(simulator_factory, seed=13))
    instances = [
        YcsbInstance(cluster.sim, client, cluster.populated_keys,
                     cluster.rng.substream(f"ycsb{client.client_id}"),
                     workload="A", alpha=0.99)
        for client in cluster.clients
    ]
    procs = [instance.run(0.02) for instance in instances]
    for proc in procs:
        cluster.sim.run_until_event(proc)
    return cluster


WORKLOADS: Dict[str, Callable[[_SimFactory], Cluster]] = {
    "retwis": run_retwis_smoke,
    "ycsb": run_ycsb_smoke,
    "retwis-mftl": run_retwis_mftl_smoke,
}

#: What ``repro sansim`` explores when no workload is named.
DEFAULT_WORKLOADS = ("retwis", "ycsb")
