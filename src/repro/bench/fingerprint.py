"""Schedule fingerprints: the determinism gate for kernel optimisations.

A fingerprint is a SHA-256 over everything a workload *observes* from a
run — per-transaction commit timestamps and read/write versions, client
counters with full float precision, network traffic counters, and the
final simulated clock. Two kernels that produce the same fingerprint
produced the same event schedule as far as any experiment can tell.

The rule (DESIGN.md "Determinism-gated optimisation"): a change to the
simulation kernel or network hot path may only land if the fingerprints
of the default-config Retwis, YCSB and figure-6 runs are byte-identical
before and after. ``tests/test_fingerprints.py`` pins them against
golden values captured from the pre-optimisation kernel, so any
schedule drift — a reordered tie, a perturbed rng stream, a skipped
event — fails tier-1 instead of silently bending the figures.

Fingerprints deliberately exclude kernel-internal observables (event
counts, heap sizes, ``events_processed``): those are *allowed* to
change when the kernel gets faster; the schedule is not.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from ..harness.cluster import Cluster, ClusterConfig
from ..harness.runner import run_retwis_on_cluster
from ..milana.client import MilanaClient
from ..workloads import YcsbInstance

__all__ = [
    "FINGERPRINT_KINDS",
    "all_fingerprints",
    "fingerprint_material",
    "schedule_fingerprint",
]

FINGERPRINT_KINDS = ("retwis", "ycsb", "figure6")


def _recording_client_factory(sim, network, directory, clock, client_id,
                              local_validation):
    """Default client plus per-transaction history recording.

    Recording only appends to a list after each decided transaction, so
    it cannot perturb the schedule it observes.
    """
    return MilanaClient(sim, network, directory, clock,
                        client_id=client_id,
                        local_validation=local_validation,
                        record_history=True)


def _version_key(version) -> Any:
    if version is None:
        return None
    return [repr(version.timestamp), version.client_id]


def _client_material(client: MilanaClient) -> Dict[str, Any]:
    stats = client.stats
    history: List[Any] = [
        [
            entry.txn_id,
            sorted((key, _version_key(version))
                   for key, version in entry.reads.items()),
            sorted((key, _version_key(version))
                   for key, version in entry.writes.items()),
            repr(entry.ts),
        ]
        for entry in client.history
    ]
    return {
        "client_id": client.client_id,
        "started": stats.started,
        "committed": stats.committed,
        "aborted": stats.aborted,
        "abort_reasons": sorted(stats.abort_reasons.items()),
        "latency_total": repr(stats.latency_total),
        "latency_committed_total": repr(stats.latency_committed_total),
        "last_decided_timestamp": repr(client.last_decided_timestamp),
        "history": history,
    }


def _network_material(network) -> Dict[str, Any]:
    stats = network.stats
    return {
        "messages_sent": stats.messages_sent,
        "messages_delivered": stats.messages_delivered,
        "messages_dropped": stats.messages_dropped,
        "messages_duplicated": stats.messages_duplicated,
        "total_bytes": stats.total_bytes,
    }


def _default_config(simulator_factory=None) -> ClusterConfig:
    """The compact default-config cluster both workloads fingerprint.

    Mirrors the ``repro retwis`` / ``repro ycsb`` CLI defaults (mftl
    backend, 3 replicas, ptp-sw clocks, seed 42) at a scale small
    enough for tier-1. ``simulator_factory`` lets the sanitizer's
    equivalence tests run the same workload on a traced kernel.
    """
    return ClusterConfig(
        num_shards=1, replicas_per_shard=3, num_clients=4,
        backend="mftl", clock_preset="ptp-sw", seed=42,
        populate_keys=300,
        client_factory=_recording_client_factory,
        simulator_factory=simulator_factory)


def _retwis_material(simulator_factory=None) -> Dict[str, Any]:
    result = run_retwis_on_cluster(
        _default_config(simulator_factory), alpha=0.6, duration=0.06,
        warmup=0.015)
    cluster = result.cluster
    return {
        "kind": "retwis",
        "now": repr(cluster.sim.now),
        "clients": [_client_material(c) for c in cluster.clients],
        "network": _network_material(cluster.network),
    }


def _ycsb_material(simulator_factory=None) -> Dict[str, Any]:
    cluster = Cluster(_default_config(simulator_factory))
    instances = [
        YcsbInstance(cluster.sim, client, cluster.populated_keys,
                     cluster.rng.substream(f"ycsb{client.client_id}"),
                     workload="B", alpha=0.99)
        for client in cluster.clients
    ]
    procs = [instance.run(0.05) for instance in instances]
    for proc in procs:
        cluster.sim.run_until_event(proc)
    return {
        "kind": "ycsb",
        "now": repr(cluster.sim.now),
        "clients": [_client_material(c) for c in cluster.clients],
        "instances": [
            {
                "operations": instance.stats.operations,
                "committed": instance.stats.committed,
                "aborted": instance.stats.aborted,
                "inserts": instance.stats.inserts,
                "by_operation": sorted(
                    instance.stats.by_operation.items()),
            }
            for instance in instances
        ],
        "network": _network_material(cluster.network),
    }


def _figure6_material(simulator_factory=None) -> Dict[str, Any]:
    # Deferred: repro.sweep's worker imports repro.bench for host_clock.
    from ..sweep import sweep_experiment

    if simulator_factory is not None:
        raise ValueError(
            "figure6 builds its own clusters per data point and does not "
            "take a simulator_factory; use retwis/ycsb for traced-kernel "
            "equivalence checks")
    result = sweep_experiment("figure6", client_counts=(2,), alphas=(0.95,),
                              num_keys=150, duration=0.08, warmup=0.02)
    return {"kind": "figure6", "rendering": result.render()}


_MATERIALS = {
    "retwis": _retwis_material,
    "ycsb": _ycsb_material,
    "figure6": _figure6_material,
}


def fingerprint_material(kind: str, simulator_factory=None) -> Dict[str, Any]:
    """Run the ``kind`` workload and return its canonical observables.

    Use this to *diff* two kernels when a fingerprint mismatches: dump
    the material on each commit and compare JSON. ``simulator_factory``
    swaps in an alternative kernel (e.g. sansim's TracedSimulator) for
    equivalence checks; the material format is unchanged.
    """
    if kind not in _MATERIALS:
        raise ValueError(
            f"unknown fingerprint kind {kind!r}; expected one of "
            f"{FINGERPRINT_KINDS}")
    return _MATERIALS[kind](simulator_factory=simulator_factory)


def schedule_fingerprint(kind: str, simulator_factory=None) -> str:
    """SHA-256 hex digest of the ``kind`` workload's schedule."""
    canonical = json.dumps(
        fingerprint_material(kind, simulator_factory=simulator_factory),
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def all_fingerprints() -> Dict[str, str]:
    """Fingerprints for every gated workload, keyed by kind."""
    return {kind: schedule_fingerprint(kind)
            for kind in FINGERPRINT_KINDS}
