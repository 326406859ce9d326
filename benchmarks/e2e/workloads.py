"""The four closed-loop workloads, driven through the public ``repro`` API.

Each workload is a run object with the same phase methods, so that
``repeat.py`` can put a span around each phase and a profiler around the
window without knowing which workload it drives:

``build`` → ``populate`` → ``warmup`` → ``open_window`` → ``run_window`` →
``close_window`` → ``drain`` → ``check``.

Everything reported is a difference over the measurement window: counters
are read at ``open_window`` and again at ``close_window``, and the latency
histograms are swapped for empty ones at ``open_window`` because the ones
``repro`` keeps (``client.stats.latency_histogram``,
``backend.stats.get_histogram``) are cumulative and would include the
warm-up.

Sizes are simulated durations. ``scale`` multiplies warm-up and window
alike and never touches client counts, key counts or mixes; the self-tests
run at a few percent of full size and the traced pass at a quarter.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.durability import DurabilityConfig
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.ftl import MFTLBackend
from repro.ftl.base import CapacityError
from repro.harness.audit import run_audit
from repro.harness.cluster import Cluster, ClusterConfig
from repro.histogram import LatencyHistogram
from repro.sim.core import Simulator
from repro.sim.rng import SeededRng
from repro.versioning import Version
from repro.workloads import (
    RETWIS_MIX,
    RETWIS_MIX_75_READONLY,
    RetwisInstance,
    ZipfGenerator,
)

__all__ = ["WORKLOADS"]

#: 32 sub-buckets (the library default) quantise a percentile to ~3 %,
#: wider than the bound on the simulated latencies; 1024 gives 0.1 %.
#: Recording cost does not depend on the bucket count.
_SUB_BUCKETS = 1024


def _histogram() -> LatencyHistogram:
    return LatencyHistogram(sub_buckets=_SUB_BUCKETS)


def _merged(histograms: Sequence[LatencyHistogram]) -> LatencyHistogram:
    merged = _histogram()
    for histogram in histograms:
        merged.merge(histogram)
    return merged


def _storage_counters(backends: Sequence[MFTLBackend]) -> Dict[str, float]:
    """Cumulative FTL and flash counters summed over ``backends``; the
    busy seconds of each flash channel keep their own keys."""
    totals: Dict[str, float] = {
        "gets": 0, "puts": 0, "get_latency_total": 0.0,
        "put_latency_total": 0.0, "host_records_written": 0,
        "records_remapped": 0, "gc_runs": 0, "cpu_busy": 0.0,
        "page_reads": 0, "page_writes": 0, "block_erases": 0,
    }
    for index, backend in enumerate(backends):
        stats, device = backend.stats, backend.device.stats
        totals["gets"] += stats.gets
        totals["puts"] += stats.puts
        totals["get_latency_total"] += stats.get_latency_total
        totals["put_latency_total"] += stats.put_latency_total
        totals["host_records_written"] += stats.host_records_written
        totals["records_remapped"] += stats.records_remapped
        totals["gc_runs"] += stats.gc_runs
        totals["cpu_busy"] += backend.cpu.busy_time
        totals["page_reads"] += device.page_reads
        totals["page_writes"] += device.page_writes
        totals["block_erases"] += device.block_erases
        for channel in range(backend.device.geometry.num_channels):
            totals[f"channel_busy.{index}.{channel}"] = \
                device.channel_busy.get(channel, 0.0)
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _storage_metrics(delta: Dict[str, float], backends, window: float,
                     ops: int, get_latency: LatencyHistogram,
                     put_latency: LatencyHistogram) -> Dict[str, float]:
    channels = [value for key, value in sorted(delta.items())
                if key.startswith("channel_busy.")]
    host_pages = delta["host_records_written"] / backends[0].records_per_page
    return {
        "ftl.get_latency_mean_us":
            1e6 * _ratio(delta["get_latency_total"], delta["gets"]),
        "ftl.get_latency_p99_us": 1e6 * get_latency.percentile(99),
        "ftl.put_latency_mean_us":
            1e6 * _ratio(delta["put_latency_total"], delta["puts"]),
        "ftl.put_latency_p99_us": 1e6 * put_latency.percentile(99),
        "ftl.write_amplification": _ratio(delta["page_writes"], host_pages),
        "ftl.gc_runs": delta["gc_runs"],
        "ftl.remapped_per_put":
            _ratio(delta["records_remapped"], delta["puts"]),
        "ftl.cpu_util": _ratio(delta["cpu_busy"], window * len(backends)),
        "flash.reads_per_op": _ratio(delta["page_reads"], ops),
        "flash.writes_per_op": _ratio(delta["page_writes"], ops),
        "flash.erases": delta["block_erases"],
        "flash.channel_util_mean":
            _ratio(sum(channels), window * len(channels)),
        "flash.channel_util_max": _ratio(max(channels), window),
    }


#: Counters of the layers a single-device workload never enters.
_NO_CLUSTER = {
    "net.msgs_per_op": 0.0, "net.bytes_per_op": 0.0, "net.msgs_dropped": 0,
    "net.handler_errors": 0, "milana.local_validation_share": 0.0,
    "milana.attempts_per_commit": 0.0, "milana.unknown_votes": 0,
    "milana.decide_retries": 0, "semel.puts_rejected_stale": 0,
    "durability.appends_per_commit": 0.0,
    "durability.fsyncs_per_commit": 0.0,
}


class _Run:
    """What the two kinds of run share: the window bookkeeping."""

    sim: Simulator
    warmup_s: float
    window_s: float

    def _counters(self) -> Dict[str, float]:
        raise NotImplementedError

    def _swap_histograms(self) -> Dict[str, List[LatencyHistogram]]:
        """Install empty histograms and hand back the ones replaced."""
        raise NotImplementedError

    def warmup(self) -> None:
        self.sim.run(until=self.sim.now + self.warmup_s)

    def open_window(self) -> None:
        self._swap_histograms()
        self._before = self._counters()

    def run_window(self) -> None:
        self.sim.run(until=self.sim.now + self.window_s)

    def close_window(self) -> None:
        after = self._counters()
        self._delta = {key: after[key] - self._before[key] for key in after}
        self._latency = {
            name: _merged(histograms)
            for name, histograms in self._swap_histograms().items()}

    def drain(self) -> None:
        """Let every closed loop finish its last operation. A loop that
        ended as a failed process raises here, as any other failed
        process does out of ``sim.run``: the repeat dies without a
        result."""
        for proc in self._loops:
            self.sim.run_until_event(proc)

    def check(self) -> List[str]:
        """What is wrong with the finished run; empty when correct."""
        return []


class RetwisRun(_Run):
    """Retwis on a 3 shard × 3 replica MFTL cluster."""

    KEYS = 3000
    #: What ``ClusterConfig`` would size for 1 000 keys per shard. It is
    #: spelled out because populating is a phase of its own here, and a
    #: config with ``populate_keys=0`` would size the device for none.
    GEOMETRY = FlashGeometry(page_size=4096, pages_per_block=32,
                             num_blocks=32, num_channels=16)
    #: The paper's clients retry an aborted transaction until it commits.
    #: The library default of 10 retries abandons about one transaction
    #: in three runs of ``retwis_rw``, and an abandoned transaction is a
    #: failed operation; this bound is never reached.
    MAX_RETRIES = 1000
    #: Simulated time given to one-way decide messages still in flight
    #: after the drain, so the audit finds no record PREPARED.
    SETTLE_S = 5e-3

    def __init__(self, seed: int, scale: float, audit: bool, *,
                 clients: int, clock_preset: str, mix: list, alpha: float,
                 durability: Optional[DurabilityConfig],
                 warmup_s: float, window_s: float) -> None:
        self.audit = audit
        self.alpha = alpha
        self.mix = mix
        self.warmup_s = warmup_s * scale
        self.window_s = window_s * scale
        self.config = ClusterConfig(
            num_shards=3, replicas_per_shard=3, num_clients=clients,
            backend="mftl", clock_preset=clock_preset, seed=seed,
            local_validation=True, geometry=self.GEOMETRY,
            durability=durability)

    def build(self) -> None:
        self.cluster = Cluster(self.config)
        self.sim = self.cluster.sim
        self.backends = [server.backend
                         for server in self.cluster.servers.values()]
        for client in self.cluster.clients:
            client.record_history = self.audit

    def populate(self) -> None:
        cluster = self.cluster
        keys = cluster.populate(self.KEYS)
        self.instances = [
            RetwisInstance(
                cluster.sim, client, keys,
                cluster.rng.substream(f"retwis-{client.client_id}"),
                alpha=self.alpha, max_retries=self.MAX_RETRIES, mix=self.mix)
            for client in cluster.clients
        ]
        for client in cluster.clients:
            client.start_watermark_daemon(0.05)
        total = self.warmup_s + self.window_s
        self._loops = [instance.run(total) for instance in self.instances]

    def _swap_histograms(self) -> Dict[str, List[LatencyHistogram]]:
        replaced: Dict[str, List[LatencyHistogram]] = {
            "op": [], "get": [], "put": []}
        for client in self.cluster.clients:
            replaced["op"].append(client.stats.latency_histogram)
            client.stats.latency_histogram = _histogram()
        for backend in self.backends:
            replaced["get"].append(backend.stats.get_histogram)
            replaced["put"].append(backend.stats.put_histogram)
            backend.stats.get_histogram = _histogram()
            backend.stats.put_histogram = _histogram()
        return replaced

    def _counters(self) -> Dict[str, float]:
        cluster = self.cluster
        clients = [client.stats for client in cluster.clients]
        servers = list(cluster.servers.values())
        nodes = ([server.node for server in servers]
                 + [client.node for client in cluster.clients])
        reasons: Dict[str, int] = {}
        for stats in clients:
            for reason, count in stats.abort_reasons.items():
                reasons[reason] = reasons.get(reason, 0) + count
        rpc_failed = sum(
            count for reason, count in reasons.items()
            if reason == "read-error" or reason.startswith("prepare failed")
            or reason.startswith("prepare outcome unknown"))
        logical = sum(sum(instance.stats.by_type.values())
                      for instance in self.instances)
        logical_committed = sum(instance.stats.committed
                                for instance in self.instances)
        counters = _storage_counters(self.backends)
        counters.update({
            "events": self.sim.events_processed,
            "committed": sum(stats.committed for stats in clients),
            "aborted": sum(stats.aborted for stats in clients),
            "local_validations":
                sum(stats.local_validations for stats in clients),
            "unknown_votes": sum(stats.unknown_votes for stats in clients),
            "decide_retries": sum(stats.decide_retries for stats in clients),
            "rpc_failed": rpc_failed,
            "abandoned": logical - logical_committed,
            "messages_sent": cluster.network.stats.messages_sent,
            "messages_dropped": cluster.network.stats.messages_dropped,
            "total_bytes": cluster.network.stats.total_bytes,
            "handler_errors": sum(node.handler_errors for node in nodes),
            "puts_rejected_stale":
                sum(server.puts_rejected_stale for server in servers),
            "wal_appends": sum(server.wal.appends for server in servers
                               if server.wal is not None),
            "wal_fsyncs": sum(server.wal.fsyncs for server in servers
                              if server.wal is not None),
        })
        return counters

    def results(self) -> Dict[str, Any]:
        delta, latency = self._delta, self._latency
        committed, aborted = delta["committed"], delta["aborted"]
        decided = committed + aborted
        counters = _storage_metrics(
            delta, self.backends, self.window_s, decided,
            latency["get"], latency["put"])
        counters.update({
            "sim.events_per_op": _ratio(delta["events"], decided),
            "net.msgs_per_op": _ratio(delta["messages_sent"], decided),
            "net.bytes_per_op": _ratio(delta["total_bytes"], decided),
            "net.msgs_dropped": delta["messages_dropped"],
            "net.handler_errors": delta["handler_errors"],
            "milana.local_validation_share":
                _ratio(delta["local_validations"], decided),
            "milana.attempts_per_commit": _ratio(decided, committed),
            "milana.unknown_votes": delta["unknown_votes"],
            "milana.decide_retries": delta["decide_retries"],
            "semel.puts_rejected_stale": delta["puts_rejected_stale"],
            "durability.appends_per_commit":
                _ratio(delta["wal_appends"], committed),
            "durability.fsyncs_per_commit":
                _ratio(delta["wal_fsyncs"], committed),
        })
        return {
            "ops_decided": decided,
            "ops_committed": committed,
            "ops_failed": (delta["abandoned"] + delta["rpc_failed"]
                           + delta["handler_errors"]),
            "events": delta["events"],
            "messages_sent": delta["messages_sent"],
            "latency": latency["op"],
            "counters": counters,
        }

    def check(self) -> List[str]:
        problems = []
        if self._delta["handler_errors"]:
            problems.append(
                f"{self._delta['handler_errors']} RPC handler errors")
        if self.audit:
            self.sim.run(until=self.sim.now + self.SETTLE_S)
            report = run_audit(self.cluster)
            if not report.serializable:
                problems.append(
                    f"history not serializable: {report.witness}")
            if report.lost_writes:
                problems.append(
                    f"{len(report.lost_writes)} committed writes lost")
            if report.stuck_prepared:
                problems.append(
                    f"{len(report.stuck_prepared)} records stuck PREPARED")
        return problems


class KvRun(_Run):
    """GET/PUT requests straight at one MFTL device, no network.

    The loop is the one in ``repro.workloads.run_kv_microbench`` (same
    key and operation random streams, same watermark daemon). It is
    written out here because that function runs populate, warm-up and
    window in one call, keeps only mean latencies, and cannot tell a
    failed request from a served one.
    """

    KEYS = 4000
    WORKERS = 128
    #: The device of ``repro experiment table1`` at 4 000 keys: about
    #: 2.2x raw headroom over the live set, so put-heavy mixes collect
    #: garbage at high utilisation.
    GEOMETRY = FlashGeometry(page_size=4096, pages_per_block=32,
                             num_blocks=46, num_channels=32)
    #: Versions older than this are garbage, as in table 1.
    VERSION_WINDOW_S = 5e-3

    def __init__(self, seed: int, scale: float, audit: bool, *,
                 get_percent: float, warmup_s: float,
                 window_s: float) -> None:
        del audit  # nothing transactional to audit
        self.seed = seed
        self.get_percent = get_percent
        self.warmup_s = warmup_s * scale
        self.window_s = window_s * scale
        self.requests = 0
        self.failed = 0
        self.latency = _histogram()

    def build(self) -> None:
        self.sim = Simulator()
        self.backend = MFTLBackend(
            self.sim, FlashDevice(self.sim, self.GEOMETRY))
        self.backends = [self.backend]

    def populate(self) -> None:
        keys = [f"mb:{index}" for index in range(self.KEYS)]
        self.backend.bulk_load(
            (key, f"init-{key}", Version(-1e6, 0)) for key in keys)
        rng = SeededRng(self.seed)
        self._keys = ZipfGenerator(rng.substream("keys"), keys, alpha=0.0)
        self._op_rng = rng.substream("ops")
        self._deadline = self.sim.now + self.warmup_s + self.window_s
        self.sim.process(self._watermark_daemon())
        self._loops = [self.sim.process(self._worker(index + 1))
                       for index in range(self.WORKERS)]

    def _watermark_daemon(self):
        sim, window = self.sim, self.VERSION_WINDOW_S
        while sim.now < self._deadline:
            self.backend.set_watermark(sim.now - window)
            yield sim.timeout(window / 4)

    def _worker(self, worker_id: int):
        sim, backend = self.sim, self.backend
        while sim.now < self._deadline:
            key = self._keys.draw()
            is_get = self._op_rng.random() * 100.0 < self.get_percent
            start = sim.now
            try:
                if is_get:
                    if (yield backend.get(key)) is None:
                        self.failed += 1
                else:
                    yield backend.put(key, f"v@{start:.6f}",
                                      Version(start, worker_id))
            except CapacityError:
                self.failed += 1
            self.requests += 1
            self.latency.record(sim.now - start)

    def _swap_histograms(self) -> Dict[str, List[LatencyHistogram]]:
        stats = self.backend.stats
        replaced = {"op": [self.latency], "get": [stats.get_histogram],
                    "put": [stats.put_histogram]}
        self.latency = _histogram()
        stats.get_histogram = _histogram()
        stats.put_histogram = _histogram()
        return replaced

    def _counters(self) -> Dict[str, float]:
        counters = _storage_counters(self.backends)
        counters.update(events=self.sim.events_processed,
                        requests=self.requests, failed=self.failed)
        return counters

    def results(self) -> Dict[str, Any]:
        delta, latency = self._delta, self._latency
        requests = delta["requests"]
        counters = _storage_metrics(
            delta, self.backends, self.window_s, requests,
            latency["get"], latency["put"])
        counters.update(_NO_CLUSTER)
        counters["sim.events_per_op"] = _ratio(delta["events"], requests)
        return {
            "ops_decided": requests,
            "ops_committed": requests,
            "ops_failed": delta["failed"],
            "events": delta["events"],
            "messages_sent": 0,
            "latency": latency["op"],
            "counters": counters,
        }


#: Name -> run class with the workload's parameters bound; called with
#: ``(seed, scale, audit)``. Simulated durations are the issue's figures
#: scaled by about 0.8. A timed repeat then takes 5 to 6 host-seconds on
#: the 2-core box, three repeats make a run of 16 timed seconds, and the
#: driver's 92 runs stay inside its time cap.
WORKLOADS: Dict[str, Callable[[int, float, bool], _Run]] = {
    "retwis_ro": partial(
        RetwisRun, clients=16, clock_preset="ptp-sw",
        mix=RETWIS_MIX_75_READONLY, alpha=0.6, durability=None,
        warmup_s=0.06, window_s=0.24),
    "retwis_rw": partial(
        RetwisRun, clients=12, clock_preset="ptp-sw", mix=RETWIS_MIX,
        alpha=0.7, durability=DurabilityConfig(),
        warmup_s=0.044, window_s=0.176),
    "kv_get": partial(KvRun, get_percent=100.0, warmup_s=0.12,
                      window_s=0.36),
    "kv_put": partial(KvRun, get_percent=25.0, warmup_s=0.5, window_s=1.5),
}
