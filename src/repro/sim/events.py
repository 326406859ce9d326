"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes (see :mod:`repro.sim.process`) suspend by yielding events and are
resumed when the event *fires*. Events carry either a success value or a
failure exception.

The lifecycle of an event is:

1. *pending* — created, not yet triggered.
2. *triggered* — a value (or failure) has been attached and the event has
   been placed on the simulator's queue.
3. *processed* — the simulator has popped the event and run its callbacks.

Hot-path note: events are the most-allocated objects in the whole
reproduction (every message, timeout and process resume creates at least
one), so this module trades a little uniformity for speed — ``__slots__``
everywhere, trigger paths that push onto the simulator's heap directly
instead of going through :meth:`Simulator.schedule`, and kernel-internal
readers using the underscored attributes rather than the public
properties. The schedule produced is byte-identical to the straightforward
implementation; ``tests/test_fingerprints.py`` holds that line.

Being the most-allocated objects, events must also die by reference
counting alone: an event and its callbacks never form a cycle that
outlives its firing, and a condition (:class:`AnyOf` / :class:`AllOf`)
detaches from its unfired children the moment it is decided
(``_Condition._detach``). ``tests/test_sim_gc.py`` holds that line;
docs/PERFORMANCE.md ("The collector") has the reasoning.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
]


class _Pending:
    """Sentinel marking an event that has not yet been triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence in simulated time.

    Events are created against a :class:`~repro.sim.core.Simulator` and may
    be *succeeded* (with an optional value) or *failed* (with an exception).
    Both operations enqueue the event so that its callbacks run at the
    current simulation time, after the caller returns control to the
    simulator loop.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed",
                 "_defused")

    def __init__(self, sim: "Simulator") -> None:  # noqa: F821
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._processed = False

    # -- state ------------------------------------------------------------

    @property
    def defused(self) -> bool:
        """True once a failure has been deliberately handled, suppressing
        the simulator's unhandled-failure check.

        Backed lazily: the flag is only ever consulted on the failure
        path, so ``__init__`` skips the store and the getter defaults an
        untouched slot to False.
        """
        try:
            return self._defused
        except AttributeError:
            return False

    @defused.setter
    def defused(self, flag: bool) -> None:
        self._defused = flag

    @property
    def triggered(self) -> bool:
        """True once the event has a value or failure attached."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception attached to the event."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Attach a success value and enqueue the event at the current time."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        seq = sim._seq
        heappush(sim._heap, (sim._now, seq, self))
        sim._seq = seq + 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Attach a failure exception and enqueue the event."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        sim = self.sim
        seq = sim._seq
        heappush(sim._heap, (sim._now, seq, self))
        sim._seq = seq + 1
        return self

    def _fire(self) -> None:
        """Run callbacks; invoked by the simulator when the event is popped.

        ``Simulator._drain`` holds the one inlined copy of this body.
        """
        self._processed = True
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)
        if self._ok is False and not self.defused:
            # A failed event that nobody is waiting on is a programming
            # error; surface it rather than letting it pass silently.
            raise self._value

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self._value is not PENDING else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Pure delays are the single hottest event kind, so construction is
    fully inlined: the already-succeeded state and the heap push happen
    here without touching ``Event.__init__`` or ``Event.succeed``.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self.delay = delay
        seq = sim._seq
        heappush(sim._heap, (sim._now + delay, seq, self))
        sim._seq = seq + 1


class Interrupt(Exception):
    """Thrown into a process when it is interrupted.

    The ``cause`` attribute carries whatever object the interrupter supplied
    (commonly a string reason or the failing peer's identity).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Condition(Event):
    """Common machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:  # noqa: F821
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        # Sanitizer seam: choose the child callback once, at construction.
        # Plain simulators keep registering the bound ``_check`` exactly as
        # before (one class-attribute load here, zero per-fire cost); a
        # traced simulator routes through ``_traced_check`` so the
        # happens-before engine can join every child's clock into the
        # condition — AllOf would otherwise only inherit the last child's.
        check = self._check if sim.tracer is None else self._traced_check
        for event in self.events:
            if event._processed:
                check(event)
                if self._value is not PENDING:
                    # Decided by a child that had already fired: the
                    # rest could only ever call a check that returns at
                    # its first line, so they are never attached.
                    break
            else:
                event.callbacks.append(check)

    def _detach(self) -> None:
        """Take the check callback off every child that has not fired.

        Called once, when the condition triggers. A child left attached
        would pin the condition (and whatever its value holds, such as
        the winning child's payload) until it fires, and forever if it never does, as a reference
        cycle only the cyclic collector can free. The child itself
        stays where it is: a losing timeout still fires, with nobody
        listening, so the event count does not change. The bound method
        is rebuilt here, chosen as the constructor chose it, and never
        stored on the condition, which would be a cycle of its own.
        """
        check = (self._check if self.sim.tracer is None
                 else self._traced_check)
        for event in self.events:
            if not event._processed:
                try:
                    event.callbacks.remove(check)
                except ValueError:
                    pass

    def _collect(self) -> dict:
        """Map each already-fired child event to its value, in order."""
        return {
            event: event._value
            for event in self.events
            if event._processed and event._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _traced_check(self, event: Event) -> None:
        """Child callback used under a traced simulator (repro.sansim)."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_condition_child(self, event)
        self._check(event)


class AnyOf(_Condition):
    """Fires when the first of its child events fires.

    The value is a dict mapping every already-triggered child to its value.
    A failing child fails the condition.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if event._ok is False:
            event.defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())
        self._detach()


class AllOf(_Condition):
    """Fires when all of its child events have fired.

    The value is a dict mapping every child to its value. A failing child
    fails the condition immediately.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if event._ok is False:
            event.defused = True
            self.fail(event._value)
            self._detach()
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())
