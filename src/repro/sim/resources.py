"""The simulator's one shared resource.

:class:`Resource` — slots held for a fixed time and granted FIFO; models
a core that charges per-op CPU (``repro.ftl.base.Cpu``). A hold is one
heap entry, with no process and no grant event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque

from .events import Event

__all__ = ["Resource"]


class _Hold(Event):
    """One :meth:`Resource.hold` request: the heap entry at its release."""

    __slots__ = ("duration",)


class Resource:
    """``capacity`` slots, each held for a fixed time, granted FIFO.

    Usage from a process::

        yield resource.hold(duration)   # granted, held, released

    A hold on a free slot is one heap entry, at ``now + duration``. A
    hold that finds every slot taken waits in a FIFO queue; the release
    that frees a slot pushes the oldest waiter straight at its own
    ``now + duration``, with no grant event in between. The release is
    the hold event's first callback, so it has happened by the time the
    holder resumes, and ``held_time`` grows then.

    A holder that stops waiting (an interrupted process) does not give
    its slot back early: the hold is released when its time is up, as
    if the holder had stayed.
    """

    __slots__ = ("sim", "capacity", "held_time", "_in_use", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:  # noqa: F821
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        #: Total duration of every hold released so far.
        self.held_time = 0.0
        self._in_use = 0
        self._waiters: Deque[_Hold] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of holds waiting for a slot."""
        return len(self._waiters)

    def hold(self, duration: float) -> Event:
        """Take a slot for ``duration``; the returned event fires once
        the slot has been granted, held and released."""
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        sim = self.sim
        event = _Hold(sim)
        event.duration = duration
        event.callbacks.append(self._release)
        if self._in_use < self.capacity:
            self._in_use += 1
            event._ok = True
            event._value = None
            seq = sim._seq
            heappush(sim._heap, (sim._now + duration, seq, event))
            sim._seq = seq + 1
        else:
            self._waiters.append(event)
        return event

    def _release(self, event: _Hold) -> None:
        """First callback of every hold: free its slot, or hand it to
        the oldest waiter, whose hold then ends ``duration`` from now."""
        self.held_time += event.duration
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter._ok = True
            waiter._value = None
            sim = self.sim
            seq = sim._seq
            heappush(sim._heap, (sim._now + waiter.duration, seq, waiter))
            sim._seq = seq + 1
        else:
            self._in_use -= 1
