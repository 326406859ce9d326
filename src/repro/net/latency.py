"""Network latency models.

The paper targets intra-data-center communication: VMs on one ExoGENI
site, where one-way latencies are tens of microseconds with modest jitter.
Latency models are sampled per message, so the network layer can also
reorder messages (a later send may arrive first) — which the inconsistent
replication protocol must tolerate by design.
"""

from __future__ import annotations

import abc

from ..sim.rng import SeededRng

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "JitteredLatency",
]


class LatencyModel(abc.ABC):
    """Samples a one-way message delay in seconds; a message arrives
    that long after it is sent, whatever its size."""

    @abc.abstractmethod
    def sample(self, rng: SeededRng) -> float:
        """One delay draw."""


class FixedLatency(LatencyModel):
    """Constant one-way delay (useful for deterministic tests)."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.delay = delay

    def sample(self, rng: SeededRng) -> float:
        return self.delay


class JitteredLatency(LatencyModel):
    """Base delay plus log-normal jitter — a standard DC latency shape.

    The draw is ``base * lognormal(0, sigma)`` clipped below at ``floor``.
    """

    #: Spread of the jitter relative to the base.
    sigma = 0.2
    #: No draw is shorter than this (a log-normal has no lower bound).
    floor = 1e-6

    def __init__(self, base: float) -> None:
        if base <= 0:
            raise ValueError(f"base must be positive, got {base}")
        self.base = base

    def sample(self, rng: SeededRng) -> float:
        draw = self.base * rng.lognormvariate(0.0, self.sigma)
        return max(draw, self.floor)
