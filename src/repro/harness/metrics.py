"""Metric collection for experiment runs.

Experiments measure over a window that excludes warmup: take a
:class:`StatsSnapshot` of all clients when the measurement starts, run,
snapshot again, and diff. All rates are per second of **simulated** time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..histogram import LatencyHistogram
from ..milana.client import MilanaClient
from ..net.network import Network

__all__ = [
    "StatsSnapshot",
    "WindowMetrics",
    "snapshot",
    "window_metrics",
    "merged_latency_histogram",
]


def merged_latency_histogram(clients) -> LatencyHistogram:
    """Fold every client's transaction-latency histogram into one."""
    merged = LatencyHistogram()
    for client in clients:
        merged.merge(client.stats.latency_histogram)
    return merged


@dataclass(frozen=True)
class StatsSnapshot:
    """Point-in-time sum of client counters."""

    time: float
    committed: int
    aborted: int
    latency_total: float
    network_bytes: int = 0
    messages_sent: int = 0


@dataclass(frozen=True)
class WindowMetrics:
    """Differences between two snapshots."""

    duration: float
    committed: int
    aborted: int
    mean_latency: float
    network_bytes: int = 0
    messages_sent: int = 0

    @property
    def decided(self) -> int:
        return self.committed + self.aborted

    @property
    def abort_rate(self) -> float:
        return self.aborted / self.decided if self.decided else 0.0

    @property
    def throughput(self) -> float:
        """Committed transactions per simulated second."""
        return self.committed / self.duration if self.duration else 0.0

    @property
    def network_bandwidth_used(self) -> float:
        """Wire bytes per simulated second over the window."""
        return self.network_bytes / self.duration if self.duration else 0.0


def snapshot(sim_now: float,
             clients: Sequence[MilanaClient],
             network: Optional[Network] = None) -> StatsSnapshot:
    """Capture the aggregate client counters right now.

    Passing the cluster's :class:`Network` also records the cumulative
    wire traffic (bytes and message count) so window diffs can report
    bandwidth usage.
    """
    return StatsSnapshot(
        time=sim_now,
        committed=sum(c.stats.committed for c in clients),
        aborted=sum(c.stats.aborted for c in clients),
        latency_total=sum(c.stats.latency_total for c in clients),
        network_bytes=network.stats.total_bytes if network else 0,
        messages_sent=network.stats.messages_sent if network else 0,
    )


def window_metrics(before: StatsSnapshot,
                   after: StatsSnapshot) -> WindowMetrics:
    """Metrics over the window between two snapshots."""
    committed = after.committed - before.committed
    aborted = after.aborted - before.aborted
    decided = committed + aborted
    latency = after.latency_total - before.latency_total
    return WindowMetrics(
        duration=after.time - before.time,
        committed=committed,
        aborted=aborted,
        mean_latency=latency / decided if decided else 0.0,
        network_bytes=after.network_bytes - before.network_bytes,
        messages_sent=after.messages_sent - before.messages_sent,
    )
