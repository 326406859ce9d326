"""IEEE 1588 Precision Time Protocol clock models.

PTP synchronizes slave clocks to a master over the LAN every ~2 s using
timestamped sync messages. Accuracy depends on where timestamps are taken:

* **software timestamping** — the paper's configuration; it measures an
  average pairwise skew of 53.2 µs among its clients.
* **hardware timestamping** — the IEEE 1588 design point, < 1 µs skew.
* **DTP-class** — datacenter-network-assisted synchronization (the paper
  cites ~150 ns across a data center, < 30 ns for direct links).

For independent zero-mean Gaussian offsets with standard deviation σ, the
expected pairwise skew E|o_i − o_j| is 2σ/√π ≈ 1.1284 σ; the clock
inverts that so the configured *average pairwise skew* matches the
paper's reported numbers (``CLOCK_PRESETS`` in ``repro.clocks.skew``).
"""

from __future__ import annotations

import math

from ..sim.rng import SeededRng
from .synced import SyncedClock

__all__ = [
    "PAIRWISE_TO_STD",
    "PTP_SOFTWARE_MEAN_SKEW",
    "PTP_HARDWARE_MEAN_SKEW",
    "PTP_DTP_MEAN_SKEW",
    "PTPClock",
]

#: Divide a target mean pairwise skew by this to get the Gaussian std dev.
PAIRWISE_TO_STD = 2.0 / math.sqrt(math.pi)

#: Paper §5.2: "software timestamped PTP has average skew of 53.2 µs".
PTP_SOFTWARE_MEAN_SKEW = 53.2e-6
#: IEEE 1588 with hardware timestamping: < 1 µs; we model 0.5 µs mean.
PTP_HARDWARE_MEAN_SKEW = 0.5e-6
#: DTP-class datacenter synchronization (~150 ns across the DC).
PTP_DTP_MEAN_SKEW = 150e-9


class PTPClock(SyncedClock):
    """A PTP-synchronized clock with a configurable mean pairwise skew."""

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        rng: SeededRng,
        mean_pairwise_skew: float = PTP_SOFTWARE_MEAN_SKEW,
        sync_interval: float = 2.0,
        drift_ppm: float = 1.0,
        name: str = "ptp-clock",
    ) -> None:
        if mean_pairwise_skew < 0:
            raise ValueError(
                f"mean_pairwise_skew must be >= 0, got {mean_pairwise_skew}")
        self.mean_pairwise_skew = mean_pairwise_skew
        super().__init__(
            sim,
            rng,
            residual_std=mean_pairwise_skew / PAIRWISE_TO_STD,
            drift_ppm=drift_ppm,
            sync_interval=sync_interval,
            name=name,
        )

