"""The tie-break kernel: the schedule explorer's simulator.

:class:`TracedSimulator` subclasses the production
:class:`~repro.sim.core.Simulator` and overrides its one loop
(``_drain``) as a plain walk over :meth:`TracedSimulator.step`, whose
pop resolves same-timestamp ties through a pluggable, seeded tie-break
policy (:mod:`repro.sansim.policies`) instead of strict sequence order.
That is the explorer's lever. The default
:class:`~repro.sansim.policies.FifoTieBreak` picks index 0, which is
byte-identical to the base kernel's ``(time, seq)`` order.

``cancel`` drops the event's callbacks but keeps its entry, so every
tie the policy sees is the one the uncancelled schedule had.

``run``, ``run_until_event``, ``process`` and ``start`` are inherited:
processes, events and messages are the production kernel's.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional, Tuple

from ..sim.core import Simulator
from ..sim.events import Event
from .policies import FifoTieBreak, TieBreakPolicy

__all__ = ["TracedSimulator"]


class TracedSimulator(Simulator):
    """Simulator with permutable same-time ties."""

    __slots__ = ("tie_break",)

    tie_break: TieBreakPolicy

    def __init__(self, tie_break: Optional[TieBreakPolicy] = None) -> None:
        super().__init__()
        self.tie_break = (tie_break if tie_break is not None
                          else FifoTieBreak())

    def cancel(self, event: Event) -> None:
        """Drop ``event``'s callbacks and never compact.

        Seeded tie-break policies draw over every tied entry (two calls
        sent in one step with one timeout have deadlines at the same
        float), so removing cancelled entries would change which entry a
        draw picks. Kept, they pop and fire with no callbacks, and
        schedules stay those of the kernel without cancellation under
        every policy.
        """
        self._disarm(event)

    # -- tie-aware pop ----------------------------------------------------

    def _pop_next(self) -> Tuple[float, int, Event]:
        """Pop the next event, letting the policy pick among time ties.

        Tied entries surface in ascending sequence order (the heap's
        total order is unique), so ``choose() == 0`` reproduces the base
        kernel's schedule exactly.
        """
        heap = self._heap
        entry = heappop(heap)
        if heap and heap[0][0] == entry[0]:
            tied = [entry]
            time = entry[0]
            while heap and heap[0][0] == time:
                tied.append(heappop(heap))
            index = self.tie_break.choose(tied)
            if not 0 <= index < len(tied):  # defensive: bad policy
                index = 0
            entry = tied.pop(index)
            for other in tied:
                heappush(heap, other)
        return entry

    # -- event loop (non-inlined; correctness over speed) -----------------

    def step(self) -> None:
        time, _seq, event = self._pop_next()
        self._now = time
        self.events_processed += 1
        event._fire()

    def _drain(self, until: float, stop: Optional[Event]) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until:
            self.step()
            if stop is not None and stop._processed:
                return
