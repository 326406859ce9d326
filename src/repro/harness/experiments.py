"""The experiment table: one row per table/figure in the paper (§5).

Every experiment is a small parameter grid, and each is declared exactly
once, as an :class:`Experiment` row: its title/headers/notes, its ordered
axes, the full-scale parameter values with the quick-scale differences,
and one ``point`` function that builds a fresh ``Simulator``, runs a
single grid point and returns that point's rows and series points.
Nothing here loops over a grid — :func:`repro.sweep.run_sweep` is the one
loop that walks a row's points (serially or across worker processes) and
merges them into an :class:`ExperimentResult`, so ``repro experiment``,
``repro sweep`` and the drivers under ``benchmarks/`` all print the same
rows in the same order.

Full scale finishes in seconds-to-minutes of wall clock; the paper's
scale (millions of keys, 15-minute runs) is reachable by overriding
parameters, but the *shapes* — who wins, by what factor, where the
crossovers fall — are what the reproduction validates (see
EXPERIMENTS.md).

To add an experiment, write its ``point`` function and append one row to
:data:`FIGURES` (or ``ABLATIONS`` in :mod:`repro.harness.ablations`); the
CLI listings, cell enumeration, caching and parallel fan-out follow from
the row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

from ..baselines.centiman import CentimanClient, WatermarkBoard
from ..clocks.perfect import PerfectClock
from ..flash.device import FlashDevice
from ..flash.geometry import FlashGeometry
from ..ftl.dram import DRAMBackend
from ..ftl.mftl import MFTLBackend
from ..ftl.vftl import VFTLBackend
from ..milana.client import MilanaClient
from ..semel.client import SemelClient
from ..semel.server import StorageServer
from ..semel.sharding import Directory
from ..net.latency import FixedLatency
from ..net.network import Network
from ..net.rpc import AppError
from ..sim.core import Simulator
from ..sim.rng import SeededRng
from ..workloads.microbench import run_kv_microbench
from ..workloads.retwis import RETWIS_MIX_75_READONLY
from .cluster import ClusterConfig
from .report import format_table, series_block
from .runner import run_retwis_on_cluster

__all__ = ["Experiment", "ExperimentResult", "FIGURES", "Point"]

#: What one grid point contributes: its table rows and, per series name,
#: one ``(x, y)`` point.
Point = Tuple[List[list], Dict[str, Tuple[Any, Any]]]


@dataclass
class ExperimentResult:
    """Uniform result container for tables and figures."""

    name: str
    headers: List[str]
    rows: List[List[Any]]
    #: Figure series: name -> (xs, ys); rendered alongside the table.
    series: Dict[str, Tuple[list, list]] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        parts = [format_table(self.headers, self.rows, title=self.name)]
        for series_name, (xs, ys) in self.series.items():
            parts.append(series_block(series_name, xs, ys))
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment table: a grid and how to run a point."""

    name: str
    title: str
    headers: Tuple[str, ...]
    #: ``(grid key, point keyword)`` per axis, outermost first. This *is*
    #: the canonical cell order, hence the row order of the merged table.
    axes: Tuple[Tuple[str, str], ...]
    #: Every parameter at full scale: a tuple of values per axis grid key,
    #: plus the scalars shared by all points (passed to ``point`` as-is).
    full: Mapping[str, Any]
    #: The parameters that differ at quick (CI) scale.
    quick: Mapping[str, Any]
    #: ``point(**params) -> Point`` runs one grid point from scratch.
    point: Callable[..., Point]
    notes: str = ""
    #: Hidden rows are runnable but left out of the CLI listings.
    hidden: bool = False
    #: Header of a column every row must hold true; ``repro sweep``
    #: names each cell that fails it and exits 1.
    verdict: Optional[str] = None

    def points(self, scale: str = "quick",
               **overrides: Any) -> Iterator[Dict[str, Any]]:
        """Keyword arguments of every grid point, in canonical order.

        ``scale`` selects the full or quick parameter values and
        ``overrides`` replace individual ones; unknown override keys
        raise, so a typo cannot silently shrink (or fail to shrink) a
        sweep.
        """
        if scale not in ("quick", "full"):
            raise ValueError(f"unknown scale {scale!r}; use 'quick' or 'full'")
        grid = dict(self.full)
        if scale == "quick":
            grid.update(self.quick)
        unknown = set(overrides) - set(grid)
        if unknown:
            raise ValueError(
                f"unknown sweep override(s) {sorted(unknown)}; expected a "
                f"subset of {sorted(grid)}")
        grid.update(overrides)
        axis_values = [grid.pop(key) for key, _ in self.axes]
        for values in itertools.product(*axis_values):
            params = dict(grid)
            params.update(zip((param for _, param in self.axes), values))
            yield params


# ---------------------------------------------------------------------------
# Table 1: single-SSD multi-version FTL performance (MFTL vs VFTL)
# ---------------------------------------------------------------------------

def _table1_geometry(num_keys: int) -> FlashGeometry:
    """Size the device so put-heavy mixes run at high utilization.

    The MFTL-vs-VFTL differences the paper reports are utilization
    effects: with the double reserve, VFTL's effective space is 0.81 of
    raw vs MFTL's 0.9, so at ~80 % live utilization VFTL garbage-collects
    far more per reclaimed page. ~2.2x raw headroom over the live set
    puts the 25-50 % GET rows in that regime while leaving the read-heavy
    rows CPU-bound like the paper's.
    """
    records_per_page = 8
    live_pages = max(1, num_keys // records_per_page)
    num_blocks = max(40, (live_pages * 30) // (10 * 32))
    return FlashGeometry(page_size=4096, pages_per_block=32,
                         num_blocks=num_blocks, num_channels=32)


def _table1_point(get_percent, num_keys, duration, warmup, num_workers,
                  seed) -> Point:
    """Table 1: throughput (kreq/s) and GET/PUT latency, VFTL vs MFTL.

    A single emulated SSD per §5.1: pre-populated store, closed-loop
    workers bounded by the hardware queue depth, GC active via a
    watermark window. One point is one GET mix on both FTLs (each on its
    own simulator), since a table row compares the two.
    """
    measured = {}
    for kind, backend_class in (("vftl", VFTLBackend), ("mftl", MFTLBackend)):
        sim = Simulator()
        backend = backend_class(
            sim, FlashDevice(sim, _table1_geometry(num_keys)))
        result = run_kv_microbench(
            sim, backend,
            SeededRng(seed).substream(kind).substream(f"g{get_percent}"),
            num_keys=num_keys, get_percent=get_percent,
            duration=duration, warmup=warmup,
            num_workers=num_workers, version_window=0.005)
        measured[kind] = (result, backend.write_amplification)
    vftl, vftl_wa = measured["vftl"]
    mftl, mftl_wa = measured["mftl"]
    return [[
        get_percent,
        vftl.throughput / 1e3, mftl.throughput / 1e3,
        vftl.mean_get_latency * 1e6, mftl.mean_get_latency * 1e6,
        vftl.mean_put_latency * 1e6, mftl.mean_put_latency * 1e6,
        vftl_wa, mftl_wa,
    ]], {}


# ---------------------------------------------------------------------------
# Figure 1: impact of clock skew on a shared-object update
# ---------------------------------------------------------------------------

class _OffsetClock(PerfectClock):
    """A clock with a constant offset from true time."""

    def __init__(self, sim, offset: float, name: str = "offset-clock"):
        super().__init__(sim, name=name)
        self._offset = offset

    def _raw_now(self) -> float:
        return self.sim.now + self._offset


def _figure1_point(write_latency, skew, rounds, seed) -> Point:
    """Figure 1: spurious rejections of a lagging client vs clock skew.

    Two clients alternately update one shared object through a SEMEL
    server; the lagging client's writes are rejected (stale timestamp)
    until its clock passes the leader's last stamp — wasted time ~ max(0,
    epsilon - t_w) per update, so skews above the write latency hurt and
    skews below it are free.
    """
    sim = Simulator()
    network = Network(sim, SeededRng(seed), latency=FixedLatency(5e-6))
    directory = Directory({"shard0": ["srv"]})
    StorageServer(sim, network, directory, "srv", "shard0",
                  DRAMBackend(sim, write_latency=write_latency, op_cpu=0.0))
    leader = SemelClient(sim, network, directory,
                         _OffsetClock(sim, +skew / 2), client_id=1)
    laggard = SemelClient(sim, network, directory,
                          _OffsetClock(sim, -skew / 2), client_id=2)
    rejections = 0
    attempts = 0

    def duel():
        nonlocal rejections, attempts
        for _ in range(rounds):
            yield leader.put("shared", "from-leader")
            while True:
                attempts += 1
                try:
                    yield laggard.put("shared", "from-laggard")
                    break
                except AppError:
                    rejections += 1
                    yield sim.timeout(max(write_latency, 1e-6))

    sim.run_until_event(sim.process(duel()))
    reject_rate = rejections / attempts if attempts else 0.0
    return ([[write_latency * 1e6, skew * 1e6, reject_rate]],
            {f"t_w={write_latency * 1e6:.1f}us": (skew * 1e6, reject_rate)})


# ---------------------------------------------------------------------------
# Figure 6: abort rate vs number of clients, single- vs multi-version FTL
# ---------------------------------------------------------------------------

def _figure6_point(backend, alpha, num_clients, num_keys, duration, warmup,
                   seed) -> Point:
    """Figure 6: multi-versioning cuts abort rates under contention.

    Single storage node, no clock skew (all clients share the one VM's
    clock in the paper), Retwis Table-2 mix, single- vs multi-version
    FTL.
    """
    config = ClusterConfig(
        num_shards=1, replicas_per_shard=1,
        num_clients=num_clients, backend=backend,
        clock_preset="perfect", seed=seed,
        populate_keys=num_keys,
        network_base_latency=20e-6)
    result = run_retwis_on_cluster(
        config, alpha=alpha, duration=duration, warmup=warmup)
    return ([[backend, alpha, num_clients, result.abort_rate]],
            {f"{backend} a={alpha}": (num_clients, result.abort_rate)})


# ---------------------------------------------------------------------------
# Figure 7: PTP vs NTP abort rates across storage backends
# ---------------------------------------------------------------------------

def _figure7_point(clock_preset, backend, alpha, num_clients, num_keys,
                   duration, warmup, seed) -> Point:
    """Figure 7: MILANA abort rates, PTP vs NTP x {DRAM, VFTL, MFTL}.

    1 primary + 2 backups, 20 Retwis instances retrying aborted
    transactions immediately with the same keys (§5.2).
    """
    config = ClusterConfig(
        num_shards=1, replicas_per_shard=3,
        num_clients=num_clients, backend=backend,
        clock_preset=clock_preset, seed=seed,
        populate_keys=num_keys)
    result = run_retwis_on_cluster(
        config, alpha=alpha, duration=duration, warmup=warmup)
    return ([[clock_preset, backend, alpha, result.abort_rate]],
            {f"{clock_preset}/{backend}": (alpha, result.abort_rate)})


# ---------------------------------------------------------------------------
# Figure 8: latency vs throughput with/without local validation
# ---------------------------------------------------------------------------

def _figure8_point(backend, local_validation, num_clients, alpha, num_keys,
                   duration, warmup, seed) -> Point:
    """Figure 8: Retwis latency vs throughput, 3 shards x 3 replicas,
    75 % read-only mix, local validation on/off."""
    config = ClusterConfig(
        num_shards=3, replicas_per_shard=3,
        num_clients=num_clients, backend=backend,
        clock_preset="ptp-sw", seed=seed,
        populate_keys=num_keys, local_validation=local_validation)
    result = run_retwis_on_cluster(
        config, alpha=alpha, duration=duration, warmup=warmup,
        mix=RETWIS_MIX_75_READONLY)
    mode = "LV" if local_validation else "noLV"
    return ([[backend, mode, num_clients,
              result.throughput,
              result.mean_latency * 1e3,
              result.metrics.network_bandwidth_used / 1e6]],
            {f"{backend}/{mode}": (result.throughput,
                                   result.mean_latency * 1e3)})


# ---------------------------------------------------------------------------
# Figure 9: MILANA vs Centiman local validation
# ---------------------------------------------------------------------------

def _figure9_point(system, alpha, num_clients, num_keys, duration, warmup,
                   dissemination_every, seed) -> Point:
    """Figure 9: throughput vs contention, MILANA vs Centiman-style
    watermark local validation (3 shards, no replication, MFTL)."""
    board = WatermarkBoard()

    def factory(sim, network, directory, clock, client_id, lv):
        if system == "centiman":
            return CentimanClient(
                sim, network, directory, clock,
                client_id=client_id,
                watermark_board=board,
                dissemination_every=dissemination_every)
        return MilanaClient(sim, network, directory, clock,
                            client_id=client_id,
                            local_validation=lv)

    config = ClusterConfig(
        num_shards=3, replicas_per_shard=1,
        num_clients=num_clients, backend="mftl",
        clock_preset="ptp-sw", seed=seed,
        populate_keys=num_keys, client_factory=factory)
    result = run_retwis_on_cluster(
        config, alpha=alpha, duration=duration, warmup=warmup,
        mix=RETWIS_MIX_75_READONLY)
    lv_fraction = 1.0
    if system == "centiman":
        attempts = sum(
            c.local_validation_attempts
            for c in result.cluster.clients)
        successes = sum(
            c.local_validation_successes
            for c in result.cluster.clients)
        lv_fraction = successes / attempts if attempts else 0.0
    return ([[system, alpha, result.throughput, lv_fraction,
              result.abort_rate]],
            {system: (alpha, result.throughput)})


FIGURES: Tuple[Experiment, ...] = (
    Experiment(
        name="table1",
        title="Table 1: Single SSD Multi-version FTL Performance",
        headers=("Get%", "VFTL kreq/s", "MFTL kreq/s",
                 "VFTL get us", "MFTL get us",
                 "VFTL put us", "MFTL put us",
                 "VFTL WA", "MFTL WA"),
        axes=(("get_percents", "get_percent"),),
        full=dict(get_percents=(100, 75, 50, 25), num_keys=4000,
                  duration=0.12, warmup=0.04, num_workers=128, seed=7),
        quick=dict(num_keys=2000, duration=0.05, warmup=0.02,
                   num_workers=64),
        point=_table1_point,
        notes=("Paper shape: MFTL wins throughput at >=50% GET "
               "(up to +45%), much lower GET latency (up to 7x); VFTL "
               "wins at 25% GET via lower packing delay."),
    ),
    Experiment(
        name="figure1",
        title="Figure 1: Impact of Clock Skew",
        headers=("t_w (us)", "skew eps (us)", "reject rate"),
        axes=(("write_latencies", "write_latency"), ("skews", "skew")),
        full=dict(write_latencies=(0.2e-6, 100e-6),
                  skews=(0.0, 1e-6, 10e-6, 100e-6, 1e-3),
                  rounds=150, seed=3),
        quick=dict(rounds=60),
        point=_figure1_point,
        notes=("Paper shape: rejections appear once eps >> t_w; fast "
               "(DRAM-class) devices suffer at far smaller skews than "
               "flash."),
    ),
    Experiment(
        name="figure6",
        title="Figure 6: Transaction abort rate vs number of clients",
        headers=("backend", "alpha", "clients", "abort rate"),
        axes=(("backends", "backend"), ("alphas", "alpha"),
              ("client_counts", "num_clients")),
        full=dict(backends=("sftl", "mftl"), alphas=(0.5, 0.75, 0.95),
                  client_counts=(2, 4, 8, 12, 16), num_keys=400,
                  duration=0.4, warmup=0.1, seed=11),
        quick=dict(alphas=(0.5, 0.95), client_counts=(2, 8), num_keys=200,
                   duration=0.15, warmup=0.04),
        point=_figure6_point,
        notes=("Paper shape: abort rate grows with clients and "
               "contention; the multi-version FTL (mftl) stays well below "
               "the single-version FTL (sftl) because tardy read-only "
               "transactions read a snapshot instead of aborting."),
    ),
    Experiment(
        name="figure7",
        title="Figure 7: PTP vs NTP MILANA transaction abort rates",
        headers=("clock", "backend", "alpha", "abort rate"),
        axes=(("clock_presets", "clock_preset"), ("backends", "backend"),
              ("alphas", "alpha")),
        full=dict(clock_presets=("ptp-sw", "ntp"),
                  backends=("dram", "vftl", "mftl"),
                  alphas=(0.4, 0.5, 0.6, 0.7, 0.8), num_clients=20,
                  num_keys=1000, duration=0.4, warmup=0.1, seed=13),
        quick=dict(backends=("dram", "mftl"), alphas=(0.5, 0.8),
                   num_clients=10, duration=0.2, warmup=0.05),
        point=_figure7_point,
        notes=("Paper shape: PTP below NTP everywhere (up to 43% lower "
               "at high contention); under NTP the DRAM backend is worst "
               "(fastest writes -> most skew-exposed), VFTL slightly "
               "above MFTL."),
    ),
    Experiment(
        name="figure8",
        title="Figure 8: Retwis transaction latency vs throughput",
        headers=("backend", "mode", "clients", "txn/s", "latency ms",
                 "wire MB/s"),
        axes=(("backends", "backend"),
              ("local_validation", "local_validation"),
              ("client_counts", "num_clients")),
        full=dict(backends=("dram", "vftl", "mftl"),
                  local_validation=(True, False),
                  client_counts=(4, 8, 16, 28, 40), alpha=0.6,
                  num_keys=3000, duration=0.4, warmup=0.1, seed=17),
        quick=dict(backends=("dram", "mftl"), client_counts=(8, 24),
                   duration=0.15, warmup=0.04),
        point=_figure8_point,
        notes=("Paper shape: local validation gives up to 55% higher "
               "throughput and 35% lower latency; MFTL beats VFTL by "
               "~15%/10%; VFTL+LV beats MFTL without LV."),
    ),
    Experiment(
        name="figure9",
        title="Figure 9: Comparison of Local Validation Techniques",
        headers=("system", "alpha", "txn/s", "local-val fraction",
                 "abort rate"),
        axes=(("systems", "system"), ("alphas", "alpha")),
        full=dict(systems=("milana", "centiman"),
                  alphas=(0.4, 0.5, 0.6, 0.7, 0.8), num_clients=20,
                  num_keys=10000, duration=0.3, warmup=0.05,
                  dissemination_every=15, seed=19),
        quick=dict(alphas=(0.4, 0.8), num_clients=12, num_keys=4000,
                   duration=0.2),
        point=_figure9_point,
        notes=("Paper shape: equal throughput at alpha=0.4; Centiman's "
               "locally-validated fraction collapses (89% -> 25%) as "
               "contention rises, costing ~20% throughput at alpha=0.8; "
               "MILANA locally validates all read-only transactions."),
    ),
)
