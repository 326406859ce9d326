"""The discrete-event simulator loop.

A :class:`Simulator` owns the event queue and the notion of *now*. Time is a
float measured in **seconds** of simulated time; all latency constants in
this package (flash timings, network delays, clock skews) are expressed in
seconds so that microsecond-scale device behaviour and millisecond-scale
clock skews compose naturally.

Example
-------
>>> sim = Simulator()
>>> def hello():
...     yield sim.timeout(1.5)
...     return "done"
>>> proc = sim.process(hello())
>>> sim.run()
>>> proc.value
'done'

Hot-path note: :meth:`Simulator._drain` is the single hottest loop in
the whole reproduction (every experiment spends most of its host
wall-clock inside it) and the only loop the kernel has: :meth:`run` and
:meth:`run_until_event` differ just in the ``until`` / ``stop``
arguments they pass it. It holds the one inlined copy of :meth:`step`
plus :meth:`Event._fire`, with local bindings instead of three method
calls per event; ``tests/test_fingerprints.py`` pins the resulting
schedules byte-for-byte. ``events_processed`` counts popped events so
``repro bench`` can report kernel throughput as events per host second.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterable, List, Optional, Tuple

from .events import AllOf, AnyOf, Event, Timeout
from .process import Process

__all__ = ["Simulator"]

_INF = float("inf")


class Simulator:
    """Owns simulated time and the pending-event heap.

    Events are totally ordered by ``(time, sequence_number)`` so that ties
    resolve in scheduling order, which makes runs fully deterministic for a
    fixed seed.
    """

    __slots__ = ("_now", "_heap", "_seq", "events_processed")

    #: Sanitizer seam (see :mod:`repro.sansim`): the traced subclass
    #: carries a ``SanitizerRuntime`` here; on the base class this is a
    #: plain class attribute, so instrumentation sites in the protocol
    #: layers pay exactly one attribute load to observe ``None`` and the
    #: hot loop below never consults it.
    #: Typed ``Any`` rather than the concrete runtime: the sim layer
    #: must not import upward into ``repro.sansim``.
    tracer: Optional[Any] = None

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        #: Cumulative count of events popped and fired; purely
        #: observational (the bench harness divides it by host seconds).
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue ``event`` to fire ``delay`` seconds from now."""
        seq = self._seq
        heappush(self._heap, (self._now + delay, seq, event))
        self._seq = seq + 1

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create a pending event to be succeeded/failed manually."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Start a new process driving ``generator``; returns its Process."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event that fires when any child fires."""
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event that fires when every child has fired."""
        return AllOf(self, list(events))

    # -- execution --------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if not self._heap:
            return _INF
        return self._heap[0][0]

    def step(self) -> None:
        """Pop and process the single next event."""
        time, _, event = heappop(self._heap)
        self._now = time
        self.events_processed += 1
        event._fire()

    def _drain(self, until: float, stop: Optional[Event]) -> None:
        """Fire events in ``(time, seq)`` order; the kernel's only loop.

        Returns as soon as the next entry is later than ``until`` (or
        the heap is empty), or right after ``stop`` has fired.
        """
        heap = self._heap
        pop = heappop
        # Pops are counted arithmetically rather than per iteration:
        # every push site bumps ``_seq`` exactly once, so
        # pops = pushes-during-run + how much the heap shrank.
        seq0 = self._seq
        len0 = len(heap)
        try:
            while heap and heap[0][0] <= until:
                time, _, event = pop(heap)
                self._now = time
                # Same-timestamp batch drain: zero-latency cascades
                # (event chains, inbox handoffs) put long runs of
                # entries at one timestamp on the heap; the inner loop
                # pops them without re-storing ``_now`` per event (the
                # equal-time guard implies ``<= until``). Pops still
                # come off the heap one at a time in (time, seq) order,
                # so the schedule is the one the un-batched loop
                # produces.
                while True:
                    # Event._fire, inlined. The one-callback case
                    # dominates, so it skips the defensive list swap:
                    # clearing before the call keeps late appends
                    # dropped, exactly like the swap does.
                    event._processed = True
                    callbacks = event.callbacks
                    if callbacks:
                        if len(callbacks) == 1:
                            callback = callbacks[0]
                            callbacks.clear()
                            callback(event)
                        else:
                            event.callbacks = []
                            for callback in callbacks:
                                callback(event)
                    if event._ok is False:
                        if not event.defused:
                            raise event._value
                    if event is stop:
                        return
                    if heap and heap[0][0] == time:
                        _, _, event = pop(heap)
                    else:
                        break
        finally:
            self.events_processed += self._seq - seq0 + len0 - len(heap)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties or simulated time reaches ``until``.

        When ``until`` is given, time is advanced exactly to ``until`` even
        if the queue drains earlier, so that back-to-back ``run`` calls see
        consistent clocks.
        """
        if until is None:
            self._drain(_INF, None)
            return
        if until < self._now:
            raise ValueError(
                f"cannot run backwards: until={until} < now={self._now}")
        self._drain(until, None)
        if self._now < until:
            self._now = until

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` has been processed; return its value.

        Raises ``RuntimeError`` if the queue drains (or ``limit`` simulated
        seconds pass) before the event fires, and re-raises the failure
        exception if the event failed.
        """
        if not event._processed:
            self._drain(_INF if limit is None else limit, event)
            if not event._processed:
                if not self._heap:
                    raise RuntimeError(
                        f"simulation queue drained before {event!r} fired")
                raise RuntimeError(
                    f"simulated time limit {limit} reached before "
                    f"{event!r} fired")
        if event._ok is False:
            raise event._value
        return event._value
