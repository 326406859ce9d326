"""Clock fault injection: skew spikes, the building block of clock storms.

:class:`FaultyClock` wraps any :class:`~repro.clocks.base.Clock` and adds
an *injected offset* on top of the inner clock's raw reading:

* :meth:`spike` — a bounded skew spike: a constant extra offset during a
  window, the building block of nemesis "clock storms";
* :meth:`clear` — the heal, dropping every spike still standing.

The wrapper is installed unconditionally by
:class:`~repro.clocks.skew.ClockEnsemble`, so injection needs no
re-wiring — but while no spike is standing, ``_raw_now`` returns the
inner clock's reading *unmodified* (not ``+ 0.0``), keeping fault-free
runs float-identical to a world without the wrapper. The inner clock's
``now()`` is never called; its monotonic guard is superseded by the
wrapper's own, which also absorbs the backward jump when a positive
spike expires or is cleared.
"""

from __future__ import annotations

from typing import List, Tuple

from .base import Clock

__all__ = ["FaultyClock"]


class FaultyClock(Clock):
    """A clock with an injectable spike offset on top of its inner
    clock's raw reading."""

    def __init__(self, inner: Clock) -> None:
        super().__init__(inner.sim, name=f"faulty:{inner.name}")
        self.inner = inner
        #: (start, end, amplitude) windows, pruned lazily.
        self._spikes: List[Tuple[float, float, float]] = []

    # -- injection ---------------------------------------------------------

    def spike(self, amplitude: float, duration: float) -> None:
        """Add ``amplitude`` seconds of offset for the next ``duration``
        true seconds, then fall back automatically."""
        if duration <= 0:
            raise ValueError(f"spike duration must be > 0, got {duration}")
        now = self.sim.now
        self._spikes.append((now, now + duration, amplitude))

    def clear(self) -> None:
        """Remove every standing spike (the monotonic guard absorbs any
        resulting backward jump)."""
        self._spikes.clear()

    # -- reading -----------------------------------------------------------

    @property
    def faulted(self) -> bool:
        """True while any spike is standing."""
        if self._spikes:
            now = self.sim.now
            self._spikes = [s for s in self._spikes if s[1] > now]
        return bool(self._spikes)

    def injected_offset(self) -> float:
        """The anomaly contribution at the current instant."""
        now = self.sim.now
        self._spikes = [s for s in self._spikes if s[1] > now]
        return sum((amp for start, end, amp in self._spikes
                    if start <= now), 0.0)

    def _raw_now(self) -> float:
        raw = self.inner._raw_now()
        if not self.faulted:
            # Bit-for-bit passthrough on the fault-free path.
            return raw
        return raw + self.injected_offset()
