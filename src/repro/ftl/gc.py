"""Space pools and the garbage collector every flash engine shares.

The generic page FTL, the unified MFTL and the KV layer of the split
VFTL all write log-structured into a pool of erased units (physical
blocks for the first two, logical blocks for the third) and recycle
units through a background collector. Three things live here, once:

* :class:`SpacePool` — the signalling between a pool, its writers and
  its collector: wake the collector when the pool falls to a trigger
  level, gate foreground writers when the pool is nearly exhausted (the
  remaining units are GC headroom; the "10 % reserved for remapping" of
  §5.1 maps to this plus the logical capacity limit each engine
  enforces), wake them when a unit comes back;
* :class:`BlockAllocator` — the pool of erased flash blocks: append
  frontier, least-worn-first block selection (dynamic wear leveling);
* :class:`Collector` — the GC daemon loop and the set of victims in
  flight. The engine says which victim to take and how to reclaim it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..sim.core import Simulator
from ..sim.events import Event
from ..sim.process import Process
from ..flash.device import FlashDevice
from .base import CapacityError

__all__ = ["SpacePool", "BlockAllocator", "Collector"]


class SpacePool:
    """A pool of erased units plus the events its users wait on.

    A subclass keeps its free units in ``_free`` (any sized container)
    and supplies ``allocate()``, ``release(unit)``, :attr:`exhausted` and
    :attr:`writers_must_wait`.
    """

    def __init__(self, sim: Simulator, free, gc_trigger: int,
                 reclaimable: Callable[[], bool]) -> None:
        self.sim = sim
        self._free = free
        #: The collector engages once this few units are left.
        self.gc_trigger = gc_trigger
        #: Answers "could GC free anything right now?"; lets a stalled
        #: writer fail fast with CapacityError instead of waiting forever
        #: on a pool that is full of live data.
        self.reclaimable = reclaimable
        self._gc_event: Optional[Event] = None
        self._space_event: Optional[Event] = None
        self._change_event: Optional[Event] = None

    # -- pool state ----------------------------------------------------------

    @property
    def free_count(self) -> int:
        return len(self._free)

    def is_free(self, unit: int) -> bool:
        return unit in self._free

    @property
    def under_pressure(self) -> bool:
        return len(self._free) <= self.gc_trigger

    # -- signalling ------------------------------------------------------------

    def _signal_allocation(self) -> None:
        """An allocation happened: wake the collector if the pool is now
        under pressure, then anyone parked on :meth:`state_change`."""
        if self.under_pressure and self._gc_event is not None:
            event, self._gc_event = self._gc_event, None
            event.succeed()
        self._fire_change()

    def wake_writers(self) -> None:
        """Wake gated writers, then anyone parked on :meth:`state_change`.

        Called when a unit is released, and also without adding space
        (e.g. after a block retirement) so writers re-evaluate and can
        fail fast if the device has reached end of life."""
        if self._space_event is not None:
            event, self._space_event = self._space_event, None
            event.succeed()
        self._fire_change()

    def _fire_change(self) -> None:
        if self._change_event is not None:
            event, self._change_event = self._change_event, None
            event.succeed()

    def state_change(self) -> Event:
        """Event that fires on the next allocation or release.

        The collector parks on this when it is under pressure but finds no
        reclaimable victim (everything valid), instead of spinning; a page
        write parks on it while the pool is exhausted.
        """
        if self._change_event is None:
            self._change_event = Event(self.sim)
        return self._change_event

    def gc_request(self) -> Event:
        """Event the collector waits on; fires when pressure is reached."""
        if self.under_pressure:
            event = Event(self.sim)
            event.succeed()
            return event
        if self._gc_event is None:
            self._gc_event = Event(self.sim)
        return self._gc_event

    def writer_gate(self):
        """Generator: stall the caller while free space is GC headroom.

        Raises :class:`CapacityError` if the pool is wedged: no free
        headroom and nothing GC could reclaim.
        """
        while self.writers_must_wait:
            if not self.reclaimable():
                raise CapacityError(
                    "out of space with nothing reclaimable: the pool is "
                    "full of live data")
            if self._space_event is None:
                self._space_event = Event(self.sim)
            yield self._space_event


class BlockAllocator(SpacePool):
    """Append-frontier page allocation over a pool of erased blocks."""

    #: Foreground writers stall once this many blocks' worth of pages is
    #: all that is left; it is the collector's remap destination.
    WRITER_MIN_FREE_BLOCKS = 1

    def __init__(self, sim: Simulator, device: FlashDevice,
                 reclaimable: Callable[[], bool]) -> None:
        num_blocks = device.geometry.num_blocks
        # Engage GC with headroom proportional to the device so the
        # collector can run ahead of sustained write bursts.
        super().__init__(sim, list(range(num_blocks)),
                         max(3, num_blocks // 16), reclaimable)
        self.device = device
        self._active: Optional[int] = None
        self._frontier = 0

    @property
    def active_block(self) -> Optional[int]:
        return self._active

    @property
    def free_pages(self) -> int:
        """Unprogrammed pages: free blocks plus the frontier remainder."""
        pages_per_block = self.device.geometry.pages_per_block
        frontier_left = 0
        if self._active is not None:
            frontier_left = pages_per_block - self._frontier
        return len(self._free) * pages_per_block + frontier_left

    @property
    def exhausted(self) -> bool:
        return self.free_pages == 0

    @property
    def writers_must_wait(self) -> bool:
        """The gate is page-granular, so a write that would create the
        very garbage GC needs is still admitted while any slack remains."""
        return self.free_pages <= (self.device.geometry.pages_per_block
                                   * self.WRITER_MIN_FREE_BLOCKS)

    def allocate(self) -> Tuple[int, int]:
        """Next (block, page) on the append frontier. Synchronous.

        Raises :class:`CapacityError` if every block is consumed — callers
        gate writers with :meth:`writer_gate` so this only happens when GC
        cannot reclaim anything (device genuinely full of live data).
        """
        if (self._active is None
                or self._frontier >= self.device.geometry.pages_per_block):
            if not self._free:
                raise CapacityError("no erased blocks available")
            least_worn = min(self._free, key=self.device.chip.erase_count)
            self._free.remove(least_worn)
            self._active = least_worn
            self._frontier = 0
        page = self._frontier
        self._frontier += 1
        self._signal_allocation()
        return self._active, page

    def release(self, block: int) -> None:
        """Return an erased block to the free pool, waking stalled writers."""
        if block in self._free:
            raise RuntimeError(f"block {block} already free")
        self._free.append(block)
        self.wake_writers()


class Collector:
    """The garbage-collection daemon of one pool.

    ``pick_victim()`` returns the next unit worth reclaiming (or None) and
    must skip anything in :attr:`in_flight`; ``reclaim(victim)`` is the
    generator that empties the victim and hands it back to the pool.
    """

    #: Collections run concurrently. Serial collection cannot keep pace
    #: with sustained writes: each round pays an erase (1 ms) plus
    #: remap-placement waits, while the foreground consumes pages
    #: continuously. Real FTLs collect across channels in parallel.
    CONCURRENCY = 4

    def __init__(self, sim: Simulator, pool: SpacePool,
                 pick_victim: Callable[[], Optional[int]],
                 reclaim: Callable[[int], object]) -> None:
        self.sim = sim
        self.pool = pool
        self.pick_victim = pick_victim
        self.reclaim = reclaim
        #: Victims being reclaimed right now (``pick_victim`` skips them).
        self.in_flight: set = set()
        self.daemon = sim.process(self._gc_daemon())

    def collect(self, victim: int):
        """Mark ``victim`` in flight *now* and return the generator that
        reclaims it, so no later pick in the same step can choose it
        again before the generator first runs."""
        self.in_flight.add(victim)
        return self._collect_marked(victim)

    def _collect_marked(self, victim: int):
        try:
            yield from self.reclaim(victim)
        finally:
            self.in_flight.discard(victim)

    def _gc_daemon(self):
        pool = self.pool
        while True:
            yield pool.gc_request()
            inflight: List[Process] = []
            while pool.under_pressure or inflight:
                # Each in-flight collection may consume up to a unit of
                # remap destinations, so cap concurrency by the free-pool
                # headroom to avoid running the pool dry.
                slots = min(self.CONCURRENCY, max(1, pool.free_count - 1))
                while pool.under_pressure and len(inflight) < slots:
                    victim = self.pick_victim()
                    if victim is None:
                        break
                    inflight.append(self.sim.process(self.collect(victim)))
                if not inflight:
                    if pool.under_pressure:
                        # Nothing reclaimable; park until the pool changes.
                        yield pool.state_change()
                        continue
                    break
                yield self.sim.any_of(inflight)
                inflight = [proc for proc in inflight if not proc.processed]
