"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's published evaluation, quantifying knobs the
text discusses qualitatively:

* **packing delay** (§5.1: "waits up to 1 ms (tunable)") — the
  latency/throughput trade of batching 512 B records into 4 KB pages;
* **replication factor** (§3.2) — the cost of waiting for f of 2f backup
  acknowledgements as the shard grows;
* **watermark dissemination interval** (§4.4) — how quickly version
  garbage becomes collectable vs. broadcast overhead;
* **GC version-retention window** (§3.1: "e.g., keep all versions that
  are less than 5 seconds old") — retained-version footprint vs. snapshot
  availability.

Each is one more row of the experiment table (see
:mod:`repro.harness.experiments`).
"""

from __future__ import annotations

from typing import Tuple

from ..flash.device import FlashDevice
from ..ftl.mftl import MFTLBackend
from ..milana.client import MilanaClient
from ..milana.extensions import CachingMilanaClient
from ..sim.core import Simulator
from ..sim.rng import SeededRng
from ..workloads.microbench import run_kv_microbench
from ..workloads.zipf import ZipfGenerator
from .cluster import Cluster, ClusterConfig
from .experiments import Experiment, Point, _table1_geometry
from .runner import run_retwis_on_cluster

__all__ = ["ABLATIONS"]


def _packing_delay_point(delay, num_keys, get_percent, duration, warmup,
                         num_workers, seed) -> Point:
    """One MFTL packing deadline.

    Zero delay writes a page per record (8x write amplification at 512 B
    records); long delays add put latency when traffic is thin. The 1 ms
    default is the paper's choice.
    """
    sim = Simulator()
    # Size for the zero-delay worst case: one record per page (8x the
    # packed footprint), or the sweep's first point wedges the device.
    device = FlashDevice(sim, _table1_geometry(num_keys * 8))
    backend = MFTLBackend(sim, device, packing_delay=delay)
    result = run_kv_microbench(
        sim, backend, SeededRng(seed).substream(f"d{delay}"),
        num_keys=num_keys, get_percent=get_percent,
        duration=duration, warmup=warmup, num_workers=num_workers,
        version_window=0.005)
    records_per_flush = (
        backend.packer.records_written / backend.packer.pages_written
        if backend.packer.pages_written else 0.0)
    return [[
        delay * 1e3,
        result.throughput / 1e3,
        result.mean_put_latency * 1e6,
        records_per_flush,
        device.stats.page_writes,
    ]], {}


def _replication_factor_point(replicas, num_clients, num_keys, alpha,
                              duration, warmup, seed) -> Point:
    """One shard replication factor (2f+1 replicas).

    SEMEL commits once f of 2f backups acknowledge, so write latency grows
    only with the slowest of the fastest-f backups — the cost of fault
    tolerance should be one round trip, roughly independent of f.
    """
    config = ClusterConfig(
        num_shards=1, replicas_per_shard=replicas,
        num_clients=num_clients, backend="dram",
        clock_preset="ptp-sw", seed=seed, populate_keys=num_keys)
    result = run_retwis_on_cluster(
        config, alpha=alpha, duration=duration, warmup=warmup)
    return [[
        replicas,
        (replicas - 1) // 2,
        result.throughput,
        result.mean_latency * 1e3,
        result.abort_rate,
    ]], {}


def _watermark_interval_point(interval, num_clients, num_keys, alpha,
                              duration, warmup, seed) -> Point:
    """One client watermark broadcast interval (§4.4).

    Slower dissemination holds the GC watermark back, so storage retains
    more dead versions (memory/flash footprint), but performance is
    unaffected — retention is off the critical path by design.
    """
    config = ClusterConfig(
        num_shards=1, replicas_per_shard=1,
        num_clients=num_clients, backend="dram",
        clock_preset="ptp-sw", seed=seed, populate_keys=num_keys)
    result = run_retwis_on_cluster(
        config, alpha=alpha, duration=duration, warmup=warmup,
        watermark_interval=interval)
    server = result.cluster.servers["srv-0-0"]
    versions = [len(server.backend.versions_of(key))
                for key in result.cluster.populated_keys[:200]]
    return [[
        interval * 1e3,
        result.throughput,
        sum(versions) / len(versions),
        max(versions),
    ]], {}


def _client_caching_point(alpha, mode, num_clients, num_keys,
                          txns_per_client, read_keys_per_txn, seed) -> Point:
    """§4.3's trade: aggressive caching vs local validation.

    Read-write-hinted transactions read from the client cache (zero
    round trips per hit) but must validate remotely; the question is
    whether the saved reads beat the extra validation round plus
    stale-cache aborts — and how the answer flips with contention.
    """
    caching = mode == "caching"

    def factory(sim, network, directory, clock, client_id, lv):
        if caching:
            return CachingMilanaClient(
                sim, network, directory, clock,
                client_id=client_id)
        return MilanaClient(sim, network, directory, clock,
                            client_id=client_id,
                            local_validation=True)

    cluster = Cluster(ClusterConfig(
        num_shards=1, replicas_per_shard=3,
        num_clients=num_clients, backend="dram",
        clock_preset="ptp-sw", seed=seed,
        populate_keys=num_keys, client_factory=factory))
    sim = cluster.sim

    def client_loop(client, index):
        rng = cluster.rng.substream(f"cache{index}")
        zipf = ZipfGenerator(rng.substream("zipf"),
                             cluster.populated_keys, alpha)
        for i in range(txns_per_client):
            txn = (client.begin(read_write_hint=True)
                   if caching else client.begin())
            keys = zipf.draw_distinct(read_keys_per_txn)
            for key in keys:
                yield client.txn_get(txn, key)
            if rng.random() < 0.3:
                client.put(txn, keys[0], f"w{i}")
            yield client.commit(txn)

    procs = [sim.process(client_loop(client, index))
             for index, client in enumerate(cluster.clients)]
    start = sim.now
    for proc in procs:
        sim.run_until_event(proc)
    elapsed = sim.now - start
    committed = sum(c.stats.committed for c in cluster.clients)
    aborted = sum(c.stats.aborted for c in cluster.clients)
    hit_rate = 0.0
    if caching:
        hits = sum(c.cache_hits for c in cluster.clients)
        misses = sum(c.cache_misses for c in cluster.clients)
        hit_rate = hits / (hits + misses) if hits + misses else 0
    decided = committed + aborted
    return [[
        alpha, mode,
        committed / elapsed if elapsed else 0.0,
        aborted / decided if decided else 0.0,
        hit_rate,
    ]], {}


def _gc_window_point(window, num_keys, get_percent, duration, warmup,
                     num_workers, seed) -> Point:
    """One version-retention window (§3.1's tunable threshold).

    Longer windows serve older snapshots (long-running analytics reads)
    at the cost of more live data on flash — hence more GC remapping.
    """
    sim = Simulator()
    device = FlashDevice(sim, _table1_geometry(num_keys))
    backend = MFTLBackend(sim, device)
    result = run_kv_microbench(
        sim, backend, SeededRng(seed).substream(f"w{window}"),
        num_keys=num_keys, get_percent=get_percent,
        duration=duration, warmup=warmup, num_workers=num_workers,
        version_window=window)
    return [[
        window * 1e3,
        result.throughput / 1e3,
        backend.stats.records_remapped,
        backend.stats.records_discarded,
    ]], {}


ABLATIONS: Tuple[Experiment, ...] = (
    Experiment(
        name="ablation-packing",
        title="Ablation: MFTL packing delay",
        headers=("delay ms", "kreq/s", "put us", "records/page",
                 "page writes"),
        axes=(("delays", "delay"),),
        full=dict(delays=(0.0, 0.25e-3, 0.5e-3, 1e-3, 2e-3), num_keys=2000,
                  get_percent=50.0, duration=0.06, warmup=0.02,
                  num_workers=64, seed=41),
        quick=dict(delays=(0.0, 1e-3), duration=0.04, warmup=0.01,
                   num_workers=32),
        point=_packing_delay_point,
        notes=("Expected: zero delay maximizes write amplification "
               "(few records per page); large delays raise put latency "
               "under thin traffic. The paper's 1 ms sits on the flat "
               "part of the curve at realistic load."),
    ),
    Experiment(
        name="ablation-replication",
        title="Ablation: replication factor",
        headers=("replicas", "f", "txn/s", "latency ms", "abort rate"),
        axes=(("replica_counts", "replicas"),),
        full=dict(replica_counts=(1, 3, 5), num_clients=8, num_keys=1000,
                  alpha=0.6, duration=0.25, warmup=0.05, seed=43),
        quick=dict(replica_counts=(1, 3), num_clients=4, duration=0.12,
                   warmup=0.03),
        point=_replication_factor_point,
        notes=("Expected: going from no replication to 3 replicas costs "
               "one backup round trip on the prepare path; 3 -> 5 "
               "replicas costs little more (still one quorum wait)."),
    ),
    Experiment(
        name="ablation-watermark",
        title="Ablation: watermark dissemination interval",
        headers=("interval ms", "txn/s", "mean versions/key",
                 "max versions/key"),
        axes=(("intervals", "interval"),),
        full=dict(intervals=(0.01, 0.05, 0.2), num_clients=8, num_keys=800,
                  alpha=0.7, duration=0.3, warmup=0.05, seed=47),
        quick=dict(intervals=(0.01, 0.2), num_clients=4, duration=0.15,
                   warmup=0.04),
        point=_watermark_interval_point,
        notes=("Expected: retained versions grow with the dissemination "
               "interval while throughput stays flat — watermark GC is "
               "off the critical path."),
    ),
    Experiment(
        name="ablation-gc-window",
        title="Ablation: GC version-retention window",
        headers=("window ms", "kreq/s", "records remapped",
                 "records discarded"),
        axes=(("windows", "window"),),
        full=dict(windows=(0.002, 0.01, 0.05), num_keys=2000,
                  get_percent=50.0, duration=0.08, warmup=0.02,
                  num_workers=64, seed=53),
        quick=dict(windows=(0.002, 0.02), duration=0.04, warmup=0.01,
                   num_workers=32),
        point=_gc_window_point,
        notes=("Expected: larger windows retain more versions, forcing "
               "GC to remap more live records per reclaimed block."),
    ),
    Experiment(
        name="ablation-caching",
        title="Ablation: aggressive client caching vs local validation "
              "(section 4.3 future work)",
        headers=("alpha", "mode", "txn/s", "abort rate", "cache hit rate"),
        axes=(("alphas", "alpha"), ("modes", "mode")),
        full=dict(alphas=(0.4, 0.8), modes=("local-validation", "caching"),
                  num_clients=8, num_keys=1000, txns_per_client=150,
                  read_keys_per_txn=4, seed=59),
        quick=dict(num_clients=4, txns_per_client=60),
        point=_client_caching_point,
        notes=("Expected: caching wins when hit rates are high and "
               "contention low (saved read round trips); under high "
               "contention stale-cache aborts and mandatory remote "
               "validation erode the gain — the trade the paper "
               "anticipates."),
    ),
)
