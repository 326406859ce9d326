"""Log-linear latency histograms (HdrHistogram-style, simplified).

Means hide tails; a storage paper reproduction should expose them. The
histogram buckets values on a log-linear grid: values within each
power-of-two range are split into ``sub_buckets`` linear slots, giving a
bounded relative error (about 1/sub_buckets) at every magnitude from
nanoseconds to seconds with O(1) recording.

Memory follows what is recorded, not the configured span. Each
power-of-two range owns one row of ``sub_buckets`` counters, allocated
when that range records its first sample, so a histogram holds 8 B x
``sub_buckets`` per range actually recorded into. A 1,024-sub-bucket
histogram spanning 1 ns to 100 s has 38 ranges (304 KiB if all were
allocated), but latencies between 50 us and 5 ms touch at most eight of
them (64 KiB).
"""

from __future__ import annotations

import math
from math import log2
from typing import Dict, List, Optional

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
        #: One row of ``sub_buckets`` counters per power-of-two range,
        #: ``None`` until that range records its first sample.
        self._rows: List[Optional[List[int]]] = [None] * self._decades
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
        is the one the plain formula gives. A range's row is allocated
        on its first sample.
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
        row = self._rows[exponent]
        if row is None:
            row = self._rows[exponent] = [0] * sub_buckets
        row[sub] += 1
        self.count += 1
        self.total += value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value

    # -- queries --------------------------------------------------------------

    def _bucket_value(self, exponent: int, sub: int) -> float:
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
        for exponent, row in enumerate(self._rows):
            if row is None:
                continue
            for sub, bucket_count in enumerate(row):
                running += bucket_count
                if running >= target:
                    return self._bucket_value(exponent, sub)
        return self.max_seen

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
        """Fold another histogram (same configuration) into this one.

        Adds row by row. A row only ``other`` has is copied, never
        shared, so recording into either histogram afterwards leaves the
        other unchanged.
        """
        if (other.min_value != self.min_value
                or other.sub_buckets != self.sub_buckets
                or other.max_value != self.max_value):
            raise ValueError("cannot merge differently configured "
                             "histograms")
        rows = self._rows
        for exponent, row in enumerate(other._rows):
            if row is None:
                continue
            mine = rows[exponent]
            if mine is None:
                rows[exponent] = list(row)
            else:
                rows[exponent] = [a + b for a, b in zip(mine, row)]
        self.count += other.count
        self.total += other.total
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)
