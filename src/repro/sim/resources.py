"""Shared resources for simulation processes.

* :class:`Store` — a FIFO buffer of items; the basic building block for
  message inboxes and request queues.
* :class:`Resource` — a counted semaphore with FIFO waiters; models things
  like a device's hardware queue slots or a flash channel.
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


class Resource:
    """A counted semaphore with FIFO waiters.

    Usage from a process::

        yield resource.acquire()
        try:
            ...  # critical section
        finally:
            resource.release()
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:  # noqa: F821
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request a slot; the returned event fires once granted."""
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._in_use -= 1
