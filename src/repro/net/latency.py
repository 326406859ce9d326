"""Network latency models.

The paper targets intra-data-center communication: VMs on one ExoGENI
site, where one-way latencies are tens of microseconds with modest jitter.
Latency models are sampled per message, so the network layer can also
reorder messages (a later send may arrive first) — which the inconsistent
replication protocol must tolerate by design.
"""

from __future__ import annotations

import abc
from typing import Optional

from ..sim.rng import SeededRng

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "JitteredLatency",
]


class LatencyModel(abc.ABC):
    """Samples a one-way message delay in seconds.

    ``bandwidth`` (bytes/second) adds a size-proportional transmission
    delay on top of the propagation draw; the default ``None`` charges
    nothing, preserving the pure-latency behaviour.
    """

    def __init__(self, bandwidth: Optional[float] = None) -> None:
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.bandwidth = bandwidth

    @abc.abstractmethod
    def sample(self, rng: SeededRng) -> float:
        """One delay draw."""

    def transmission_delay(self, size: int) -> float:
        """Seconds to push ``size`` wire bytes through the link."""
        if self.bandwidth is None or size <= 0:
            return 0.0
        return size / self.bandwidth


class FixedLatency(LatencyModel):
    """Constant one-way delay (useful for deterministic tests)."""

    def __init__(self, delay: float,
                 bandwidth: Optional[float] = None) -> None:
        super().__init__(bandwidth=bandwidth)
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.delay = delay

    def sample(self, rng: SeededRng) -> float:
        return self.delay


class JitteredLatency(LatencyModel):
    """Base delay plus log-normal jitter — a standard DC latency shape.

    ``jitter_fraction`` scales the spread relative to the base; the draw is
    ``base * lognormal(0, sigma)`` clipped below at ``floor``.
    """

    #: No draw is shorter than this (a log-normal has no lower bound).
    floor = 1e-6

    def __init__(self, base: float, jitter_fraction: float = 0.2,
                 bandwidth: Optional[float] = None) -> None:
        super().__init__(bandwidth=bandwidth)
        if base <= 0:
            raise ValueError(f"base must be positive, got {base}")
        if jitter_fraction < 0:
            raise ValueError(
                f"jitter_fraction must be >= 0, got {jitter_fraction}")
        self.base = base
        self.jitter_fraction = jitter_fraction

    def sample(self, rng: SeededRng) -> float:
        if self.jitter_fraction == 0:
            return max(self.base, self.floor)
        draw = self.base * rng.lognormvariate(0.0, self.jitter_fraction)
        return max(draw, self.floor)
