"""Clock synchronization models (PTP, NTP, perfect, DTP-class).

The paper's headline comparisons hinge on how tightly client clocks agree;
this package models each protocol as a per-node monotonic clock whose
offset from true time is re-drawn at every synchronization round, with
magnitudes calibrated to the paper's measured skews (PTP-software 53.2 µs,
NTP 1.51 ms).
"""

from .anomalies import FaultyClock
from .base import Clock, MONOTONIC_STEP
from .ntp import NTP_MEAN_SKEW, NTPClock
from .perfect import PerfectClock
from .ptp import (
    PTP_DTP_MEAN_SKEW,
    PTP_HARDWARE_MEAN_SKEW,
    PTP_SOFTWARE_MEAN_SKEW,
    PTPClock,
)
from .skew import (
    CLOCK_PRESETS,
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
    "PTPClock",
    "NTPClock",
    "PTP_SOFTWARE_MEAN_SKEW",
    "PTP_HARDWARE_MEAN_SKEW",
    "PTP_DTP_MEAN_SKEW",
    "NTP_MEAN_SKEW",
    "CLOCK_PRESETS",
    "ClockEnsemble",
    "make_clock",
    "mean_pairwise_skew",
    "max_pairwise_skew",
]
