"""Log-linear latency histograms (HdrHistogram-style, simplified).

Means hide tails; a storage paper reproduction should expose them. The
histogram buckets values on a log-linear grid: values within each
power-of-two range are split into ``sub_buckets`` linear slots, giving a
bounded relative error (about 1/sub_buckets) at every magnitude from
nanoseconds to seconds with O(1) recording and tiny memory.
"""

from __future__ import annotations

import math
from math import log2
from typing import Dict, Iterable

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Fixed-precision histogram for positive values (seconds)."""

    def __init__(self, min_value: float = 1e-9, max_value: float = 100.0,
                 sub_buckets: int = 32) -> None:
        if min_value <= 0 or max_value <= min_value:
            raise ValueError(
                f"need 0 < min_value < max_value, got "
                f"{min_value}, {max_value}")
        if sub_buckets < 2:
            raise ValueError(f"sub_buckets must be >= 2: {sub_buckets}")
        self.min_value = min_value
        self.max_value = max_value
        self.sub_buckets = sub_buckets
        self._decades = int(math.ceil(
            math.log2(max_value / min_value))) + 1
        #: Lower bound of each power-of-two range, ``min_value * 2**e``.
        self._lows = [min_value * (2 ** exponent)
                      for exponent in range(self._decades)]
        self._counts = [0] * (self._decades * sub_buckets)
        self.count = 0
        self.total = 0.0
        self.min_seen = float("inf")
        self.max_seen = 0.0

    # -- recording ----------------------------------------------------------

    def record(self, value: float) -> None:
        """Record one observation (negative values are clamped up).

        Hot path: every simulated request records at least once, so the
        bucket is computed inline, with comparisons in place of
        ``min``/``max`` and each power-of-two range's lower bound read
        from ``_lows``. ``int`` truncates like ``floor`` here because the
        clamped ratio is at least 1, so every bucket, total and extreme
        is the one the plain formula gives.
        """
        min_value = self.min_value
        if value > min_value:
            clamped = value if value < self.max_value else self.max_value
        else:
            clamped = min_value
        exponent = int(log2(clamped / min_value))
        if exponent >= self._decades:
            exponent = self._decades - 1
        low = self._lows[exponent]
        sub_buckets = self.sub_buckets
        sub = int((clamped - low) / low * sub_buckets)  # fraction in [0, 1)
        if sub >= sub_buckets:
            sub = sub_buckets - 1
        self._counts[exponent * sub_buckets + sub] += 1
        self.count += 1
        self.total += value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value

    # -- queries --------------------------------------------------------------

    def _bucket_value(self, index: int) -> float:
        exponent, sub = divmod(index, self.sub_buckets)
        low = self.min_value * (2 ** exponent)
        return low * (1 + (sub + 0.5) / self.sub_buckets)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100]: {p}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(self.count * p / 100.0))
        running = 0
        for index, bucket_count in enumerate(self._counts):
            running += bucket_count
            if running >= target:
                return self._bucket_value(index)
        return self.max_seen

    def percentiles(self, ps: Iterable[float]) -> Dict[float, float]:
        return {p: self.percentile(p) for p in ps}

    def summary(self) -> Dict[str, float]:
        """The standard reporting tuple: count/mean/p50/p95/p99/max."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max_seen if self.count else 0.0,
        }

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (same configuration) into this one."""
        if (other.min_value != self.min_value
                or other.sub_buckets != self.sub_buckets
                or other.max_value != self.max_value):
            raise ValueError("cannot merge differently configured "
                             "histograms")
        for index, bucket_count in enumerate(other._counts):
            self._counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)
