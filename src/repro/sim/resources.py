"""Shared resources for simulation processes.

* :class:`Store` — a FIFO buffer of items; the basic building block for
  message inboxes and request queues.
* :class:`Resource` — slots held for a fixed time and granted FIFO; models
  a core that charges per-op CPU (``repro.ftl.base.Cpu``). A hold is one
  heap entry, with no process and no grant event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque

from .events import Event

__all__ = ["Store", "Resource"]


class Store:
    """An unbounded-or-bounded FIFO buffer of items.

    ``put`` returns an event that fires once the item is accepted (which is
    immediate unless the store is at capacity); ``get`` returns an event
    that fires with the next item once one is available.
    """

    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:  # noqa: F821
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """A read-only snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Offer ``item``; the returned event fires once it is buffered.

        Hot-path note: the immediate-accept branches inline
        ``Event.succeed`` (state stores + direct heap push) — the events
        here are freshly constructed, so the already-triggered guard the
        public method carries cannot fire. Schedule order is identical:
        the getter's event is pushed before the putter's, exactly as the
        two ``succeed`` calls did.
        """
        sim = self.sim
        event = Event(sim)
        if self._getters:
            getter = self._getters.popleft()
            getter._ok = True
            getter._value = item
            event._ok = True
            event._value = None
            seq = sim._seq
            heappush(sim._heap, (sim._now, seq, getter))
            heappush(sim._heap, (sim._now, seq + 1, event))
            sim._seq = seq + 2
        elif len(self._items) < self.capacity:
            self._items.append(item)
            event._ok = True
            event._value = None
            seq = sim._seq
            heappush(sim._heap, (sim._now, seq, event))
            sim._seq = seq + 1
        else:
            self._putters.append((event, item))
        return event

    def offer(self, item: Any) -> None:
        """Put ``item`` for a producer that never waits on the put, such
        as the network delivering into a raw inbox: hand it to the
        oldest getter or buffer it, with no completion event. A bounded
        store that is full queues it as a regular :meth:`put`."""
        if self._getters:
            self._getters.popleft().succeed(item)
        elif len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self.put(item)

    def get(self) -> Event:
        """Request the next item; the returned event fires with it."""
        sim = self.sim
        event = Event(sim)
        if self._items:
            event._ok = True
            event._value = self._items.popleft()
            seq = sim._seq
            heappush(sim._heap, (sim._now, seq, event))
            sim._seq = seq + 1
            if self._putters:
                self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        if self._putters and len(self._items) < self.capacity:
            putter, item = self._putters.popleft()
            self._items.append(item)
            putter.succeed()


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
