"""Traced simulator/process: the sanitizer-enabled kernel.

:class:`TracedSimulator` subclasses the production
:class:`~repro.sim.core.Simulator` and overrides its one loop
(``_drain``) as a plain walk over :meth:`TracedSimulator.step`, the
single traced fire body, which adds two things to the base kernel:

1. every pop consults the :class:`~repro.sansim.runtime.SanitizerRuntime`
   so the fired event's *origin clock* becomes ambient, and every push
   window is attributed back to the clock that made it;
2. same-timestamp ties are resolved through a pluggable, seeded
   tie-break policy (:mod:`repro.sansim.policies`) instead of strict
   sequence order — the schedule explorer's lever. The default
   :class:`~repro.sansim.policies.FifoTieBreak` picks index 0, which is
   byte-identical to the base kernel's ``(time, seq)`` order.

``cancel`` drops the event's callbacks but keeps its entry, so every
tie the policy sees is the one the uncancelled schedule had.

``run`` and ``run_until_event`` are inherited. ``process()`` returns a
:class:`TracedProcess`, which wraps the one resume body
(``Process._resume``) in begin/end-resume bookkeeping and overrides
``_relay``, whose push needs the target process's final clock to keep
the happens-before edge.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Optional, Tuple

from ..sim.core import Simulator
from ..sim.events import Event
from ..sim.process import Process
from .policies import FifoTieBreak, TieBreakPolicy
from .runtime import SanitizerRuntime

__all__ = ["TracedProcess", "TracedSimulator"]


class TracedProcess(Process):
    """A process that reports resume windows to the sanitizer runtime.

    The tracer calls never touch the heap themselves, so the schedule
    is the base kernel's.
    """

    __slots__ = ()

    #: Narrowed from the base class: only ``TracedSimulator.process``
    #: builds these, so ``sim.tracer`` is a live runtime.
    sim: TracedSimulator

    def _resume(self, trigger: Event) -> None:
        if trigger is not self._waiting_on:
            return
        sim = self.sim
        tracer = sim.tracer
        ctx = tracer.begin_resume(self)
        s0 = sim._seq
        try:
            Process._resume(self, trigger)
        finally:
            tracer.end_resume(ctx, s0, sim._seq)

    def _relay(self, target: Event) -> None:
        sim = self.sim
        seq = sim._seq
        Process._relay(self, target)
        # The completion push of ``target`` was consumed in an earlier
        # step; re-attach its final clock here or the join edge from
        # the finished process would be lost (a lost edge reads as a
        # false race downstream).
        sim.tracer.attribute_relay(seq, target)


class TracedSimulator(Simulator):
    """Simulator with sanitizer hooks and permutable same-time ties."""

    __slots__ = ("tracer", "tie_break")

    #: Narrowed from the base class seam (``Optional[Any]``): a traced
    #: simulator always carries a live runtime and policy.
    tracer: SanitizerRuntime
    tie_break: TieBreakPolicy

    def __init__(self, tracer: Optional[SanitizerRuntime] = None,
                 tie_break: Optional[TieBreakPolicy] = None) -> None:
        super().__init__()
        self.tracer = tracer if tracer is not None else SanitizerRuntime()
        self.tie_break = (tie_break if tie_break is not None
                          else FifoTieBreak())

    def process(self, generator: Generator[Any, Any, Any]) -> TracedProcess:
        return TracedProcess(self, generator)

    def start(self, generator: Generator[Any, Any, Any]) -> TracedProcess:
        return TracedProcess(self, generator, now=True)

    def cancel(self, event: Event) -> None:
        """Drop ``event``'s callbacks and never compact.

        Seeded tie-break policies draw over every tied entry (two calls
        sent in one step with one timeout have deadlines at the same
        float), and the runtime keys origins by seq, so removing
        cancelled entries would change which entry a draw picks. Kept,
        they pop and fire with no callbacks, and schedules stay those of
        the kernel without cancellation under every policy.
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
        time, seq, event = self._pop_next()
        self._now = time
        self.events_processed += 1
        tracer = self.tracer
        tracer.on_pop(seq, event)
        s0 = self._seq
        event._fire()
        tracer.end_fire(s0, self._seq)

    def _drain(self, until: float, stop: Optional[Event]) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until:
            self.step()
            if stop is not None and stop._processed:
                return
