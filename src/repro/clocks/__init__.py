"""Clock synchronization models (perfect, and PTP, DTP and NTP disciplines).

The paper's headline comparisons hinge on how tightly client clocks agree;
this package models every synchronized discipline as one per-node
monotonic clock (:class:`SyncedClock`) whose offset from true time is
re-drawn at every synchronization round. :data:`CLOCK_PRESETS` holds one
row per discipline, calibrated to the paper's measured skews
(PTP-software 53.2 µs, NTP 1.51 ms).
"""

from .anomalies import FaultyClock
from .base import Clock, MONOTONIC_STEP
from .perfect import PerfectClock
from .skew import (
    CLOCK_PRESETS,
    ClockDiscipline,
    ClockEnsemble,
    make_clock,
    max_pairwise_skew,
    mean_pairwise_skew,
)
from .synced import SyncedClock

__all__ = [
    "Clock",
    "MONOTONIC_STEP",
    "FaultyClock",
    "PerfectClock",
    "SyncedClock",
    "CLOCK_PRESETS",
    "ClockDiscipline",
    "ClockEnsemble",
    "make_clock",
    "mean_pairwise_skew",
    "max_pairwise_skew",
]
