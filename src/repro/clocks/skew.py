"""The clock disciplines, clock-ensemble construction and skew measurement.

:data:`CLOCK_PRESETS` is the one table of clock disciplines: every name
accepted where a clock source is configured maps to its row (or to
``None`` for a perfect clock), and :func:`make_clock` builds a clock from
that row. Experiments also need one clock per node from a single
configuration ("all clients run NTP") and a way to report the realized
skew the way the paper does (mean pairwise offset among clients).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..sim.rng import SeededRng
from .anomalies import FaultyClock
from .base import Clock
from .perfect import PerfectClock
from .synced import SyncedClock

__all__ = [
    "CLOCK_PRESETS",
    "ClockDiscipline",
    "PAIRWISE_TO_STD",
    "make_clock",
    "ClockEnsemble",
    "mean_pairwise_skew",
    "max_pairwise_skew",
]

#: Divide a target mean pairwise skew by this to get the Gaussian std
#: dev: for independent zero-mean Gaussian offsets with std dev σ, the
#: expected pairwise skew E|o_i − o_j| is 2σ/√π ≈ 1.1284 σ.
PAIRWISE_TO_STD = 2.0 / math.sqrt(math.pi)


class ClockDiscipline(NamedTuple):
    """One synchronization protocol, as a :class:`SyncedClock` runs it."""

    #: Average pairwise skew among clients (seconds).
    mean_pairwise_skew: float
    #: Seconds between synchronization rounds.
    sync_interval: float
    #: Frequency error bound between rounds (parts per million).
    drift_ppm: float


#: Named clock disciplines, accepted everywhere a clock source is
#: configured. PTP-class rows sync every 2 s (the IEEE 1588 default) with
#: 1 ppm of drift; NTP polls every 16 s (its default minimum poll) with
#: 50 ppm, which its millisecond residual dominates anyway.
CLOCK_PRESETS: Dict[str, Optional[ClockDiscipline]] = {
    "perfect": None,
    # Paper §5.2: "software timestamped PTP has average skew of 53.2 µs".
    "ptp-sw": ClockDiscipline(53.2e-6, 2.0, 1.0),
    # IEEE 1588 with hardware timestamping: < 1 µs; we model 0.5 µs mean.
    "ptp-hw": ClockDiscipline(0.5e-6, 2.0, 1.0),
    # DTP-class datacenter synchronization (~150 ns across the DC).
    "dtp": ClockDiscipline(150e-9, 2.0, 1.0),
    # Paper §5.2: "NTP shows an average skew of 1.51 ms among clients".
    "ntp": ClockDiscipline(1.51e-3, 16.0, 50.0),
}


def make_clock(preset: str, sim, rng: SeededRng, name: str) -> Clock:
    """Build one clock from the :data:`CLOCK_PRESETS` row ``preset``."""
    if preset not in CLOCK_PRESETS:
        raise ValueError(
            f"unknown clock preset {preset!r}; expected one of "
            f"{sorted(CLOCK_PRESETS)}")
    row = CLOCK_PRESETS[preset]
    if row is None:
        return PerfectClock(sim, name=name)
    return SyncedClock(
        sim, rng, residual_std=row.mean_pairwise_skew / PAIRWISE_TO_STD,
        drift_ppm=row.drift_ppm, sync_interval=row.sync_interval,
        name=name)


class ClockEnsemble:
    """One clock per named node, all built from the same preset.

    Each node's clock draws from its own RNG substream, so the set of skews
    is stable under adding/removing other nodes.
    """

    def __init__(self, sim, rng: SeededRng, preset: str = "perfect") -> None:
        self.sim = sim
        self.rng = rng
        self.preset = preset
        self._clocks: Dict[str, Clock] = {}

    def clock_for(self, node_name: str) -> FaultyClock:
        """The (memoized) clock for ``node_name``.

        Every clock comes wrapped in a :class:`FaultyClock`, so nemesis
        plans can inject step/drift/spike anomalies without re-wiring;
        the wrapper is a bit-for-bit passthrough until one is injected.
        """
        if node_name not in self._clocks:
            self._clocks[node_name] = FaultyClock(make_clock(
                self.preset,
                self.sim,
                self.rng.substream(f"clock/{node_name}"),
                name=f"{self.preset}:{node_name}",
            ))
        return self._clocks[node_name]

    @property
    def clocks(self) -> List[Clock]:
        return list(self._clocks.values())


def mean_pairwise_skew(clocks: Sequence[Clock]) -> float:
    """Average |offset_i − offset_j| over all clock pairs, right now."""
    offsets = [clock.offset() for clock in clocks]
    pairs = list(combinations(offsets, 2))
    if not pairs:
        return 0.0
    return sum(abs(a - b) for a, b in pairs) / len(pairs)


def max_pairwise_skew(clocks: Sequence[Clock]) -> float:
    """Worst-case |offset_i − offset_j| over all clock pairs, right now."""
    offsets = [clock.offset() for clock in clocks]
    if len(offsets) < 2:
        return 0.0
    return max(offsets) - min(offsets)
