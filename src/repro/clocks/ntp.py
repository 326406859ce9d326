"""Network Time Protocol clock model.

NTP is the incumbent the paper compares against: it synchronizes over
longer, jittery network paths and disciplines the clock slowly, leaving
residual offsets on the order of **milliseconds** inside a data center. The
paper measures an average pairwise skew of 1.51 ms among its NTP clients.

We reuse the generic :class:`~repro.clocks.synced.SyncedClock` with a
millisecond-scale residual and a longer polling interval (NTP's minimum
poll is 16 s by default; the exact interval is irrelevant to the abort-rate
experiments because the residual dominates drift at these magnitudes).
"""

from __future__ import annotations

from ..sim.rng import SeededRng
from .ptp import PAIRWISE_TO_STD
from .synced import SyncedClock

__all__ = ["NTP_MEAN_SKEW", "NTPClock"]

#: Paper §5.2: "NTP shows an average skew of 1.51 ms among clients".
NTP_MEAN_SKEW = 1.51e-3


class NTPClock(SyncedClock):
    """An NTP-disciplined clock with millisecond-scale residual offsets."""

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        rng: SeededRng,
        mean_pairwise_skew: float = NTP_MEAN_SKEW,
        sync_interval: float = 16.0,
        drift_ppm: float = 50.0,
        name: str = "ntp-clock",
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

