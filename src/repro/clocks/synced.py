"""Generic periodically-synchronized clock model.

Every clock discipline but ``perfect`` is this one model: a slave clock
accumulates frequency drift between synchronization rounds and, at each
round, corrects itself to within some *residual offset* of the master. The
disciplines differ only in the magnitude of the residual (sub-µs for
hardware PTP, tens of µs for software-timestamped PTP, milliseconds for
NTP), the round interval and the drift bound: the rows of
:data:`~repro.clocks.skew.CLOCK_PRESETS`.

The model evaluates lazily — no simulation process is required — which keeps
clock reads O(1) and allows millions of timestamp calls per run:

    local(t) = t + residual(k) + drift_rate * (t - t_k)

where ``t_k`` is the most recent sync instant at or before ``t`` and
``residual(k)`` is an i.i.d. draw for round ``k`` from a Gaussian with the
configured standard deviation. Each node's sync schedule starts at a random
phase of the interval, so that all nodes do not correct at the same instant.
"""

from __future__ import annotations

from typing import Optional

from ..sim.rng import SeededRng
from .base import Clock

__all__ = ["SyncedClock"]


class SyncedClock(Clock):
    """A clock corrected to a master every ``sync_interval`` seconds.

    Parameters
    ----------
    sim:
        The simulator providing true time.
    rng:
        Random stream for residual-offset and drift draws. Each clock should
        get its own substream so skews across nodes are independent.
    residual_std:
        Standard deviation (seconds) of the post-sync offset from true time.
    drift_ppm:
        Magnitude of the frequency error in parts-per-million; each sync
        round draws a drift rate uniformly in ``[-drift_ppm, +drift_ppm]``.
    sync_interval:
        Seconds between synchronization rounds.
    """

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        rng: SeededRng,
        residual_std: float,
        drift_ppm: float = 10.0,
        sync_interval: float = 2.0,
        name: str = "synced-clock",
    ) -> None:
        super().__init__(sim, name=name)
        if residual_std < 0:
            raise ValueError(f"residual_std must be >= 0, got {residual_std}")
        if sync_interval <= 0:
            raise ValueError(
                f"sync_interval must be positive, got {sync_interval}")
        self.rng = rng
        self.residual_std = residual_std
        self.drift_rate_bound = drift_ppm * 1e-6
        self.sync_interval = sync_interval
        self._phase = rng.uniform(0.0, sync_interval)
        # The clock is modelled as having been disciplined long before the
        # simulation starts: the sync schedule extends backwards in time,
        # so even time zero falls inside some round with a drawn residual.
        self._round: Optional[int] = None
        self._residual = 0.0
        self._drift_rate = 0.0
        self._load_round(self._round_index(sim.now))

    def _round_index(self, true_time: float) -> int:
        """Index of the sync round covering ``true_time`` (may be < 0)."""
        return int((true_time - self._phase) // self.sync_interval)

    def _load_round(self, index: int) -> None:
        """Set residual/drift for round ``index``.

        Each round's draws come from a substream derived from the round
        index, so they are deterministic, independent of read patterns,
        and defined for rounds before the simulation epoch.
        """
        stream = self.rng.substream(f"round{index}")
        self._round = index
        self._residual = stream.gauss(0.0, self.residual_std)
        if self.drift_rate_bound > 0:
            self._drift_rate = stream.uniform(
                -self.drift_rate_bound, self.drift_rate_bound)
        else:
            self._drift_rate = 0.0

    def _raw_now(self) -> float:
        true_time = self.sim.now
        index = self._round_index(true_time)
        if index != self._round:
            self._load_round(index)
        last_sync = self._phase + self._round * self.sync_interval
        elapsed = max(0.0, true_time - last_sync)
        return true_time + self._residual + self._drift_rate * elapsed
