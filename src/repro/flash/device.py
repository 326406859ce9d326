"""Timed SSD device: queue slots, channel parallelism, service times.

The device composes the functional :class:`~repro.flash.chip.FlashChip`
with a timing model:

* a **hardware queue** of ``queue_depth`` slots (128 in the paper) bounds
  the number of in-flight commands;
* each block belongs to a **channel**; commands to the same channel
  serialize, commands to different channels proceed in parallel;
* a command occupies its channel for the geometry's service time
  (50 µs read / 100 µs write / 1 ms erase by default).

All operations return an :class:`~repro.sim.events.Event`, the command's
completion; callers yield it from their own process and receive the
functional result (page payload for reads, ``None`` otherwise), or the
chip's :class:`~repro.flash.errors.FlashError` thrown in.

A command is not a process. It takes a queue slot and then its channel
on the spot when they are free, and otherwise waits in that queue's
FIFO. Once it holds both it pushes one service-end entry at grant time
plus service time, whose callback hands the channel and the slot to the
next waiting commands, applies the chip effect, records the stats, and
then succeeds or fails the completion event. So a command on an idle
device costs two heap entries: the service end and the completion.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, List, Optional

from ..sim.core import Simulator
from ..sim.events import Event
from .chip import FlashChip
from .errors import FlashError
from .geometry import FlashGeometry, FlashTiming, PAPER_GEOMETRY, PAPER_TIMING
from .stats import DeviceStats

__all__ = ["FlashDevice"]


class _Command(Event):
    """One flash command, and its service-end entry on the heap.

    Born succeeded, with the device's ``_finish`` as its only callback;
    ``done`` is the completion event the issuer waits on.
    """

    __slots__ = ("kind", "block", "page", "data", "channel",
                 "service_time", "done")

    def __init__(self, device: "FlashDevice", kind: str, block: int,
                 page: int, data: Any, service_time: float) -> None:
        sim = device.sim
        self.sim = sim
        self.callbacks = [device._finish]
        self._value = None
        self._ok = True
        self._processed = False
        self.kind = kind
        self.block = block
        self.page = page
        self.data = data
        self.channel = device.geometry.channel_of(block, page)
        self.service_time = service_time
        self.done = Event(sim)


class FlashDevice:
    """An SSD with NAND semantics and per-channel timing."""

    def __init__(
        self,
        sim: Simulator,
        geometry: FlashGeometry = PAPER_GEOMETRY,
        timing: FlashTiming = PAPER_TIMING,
        queue_depth: int = 128,
        endurance: Optional[int] = None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        self.queue_depth = queue_depth
        self.chip = FlashChip(geometry, endurance=endurance)
        self.stats = DeviceStats()
        self._free_slots = queue_depth
        #: Commands waiting for a queue slot, oldest first.
        self._slot_waiters: Deque[_Command] = deque()
        self._channel_busy = [False] * geometry.num_channels
        #: Per channel: commands holding a slot, waiting for the channel.
        self._channel_waiters: List[Deque[_Command]] = [
            deque() for _ in range(geometry.num_channels)]

    # -- public operations ----------------------------------------------------

    def read_page(self, block: int, page: int) -> Event:
        """Read a page; the completion event's value is its payload."""
        return self._submit(_Command(
            self, "read", block, page, None, self.timing.read_page))

    def write_page(self, block: int, page: int, data: Any) -> Event:
        """Program a page with ``data``."""
        return self._submit(_Command(
            self, "write", block, page, data, self.timing.write_page))

    def erase_block(self, block: int) -> Event:
        """Erase a block (on its base channel)."""
        return self._submit(_Command(
            self, "erase", block, 0, None, self.timing.erase_block))

    # -- internals --------------------------------------------------------------

    def _submit(self, command: _Command) -> Event:
        if self._free_slots:
            self._free_slots -= 1
            self._dispatch(command)
        else:
            self._slot_waiters.append(command)
        return command.done

    def _dispatch(self, command: _Command) -> None:
        """Give ``command``, which holds a slot, its channel, or queue it."""
        channel = command.channel
        if self._channel_busy[channel]:
            self._channel_waiters[channel].append(command)
        else:
            self._channel_busy[channel] = True
            self._serve(command)

    def _serve(self, command: _Command) -> None:
        """Push ``command``'s service end: it holds its slot and channel."""
        sim = self.sim
        seq = sim._seq
        heappush(sim._heap, (sim._now + command.service_time, seq, command))
        sim._seq = seq + 1

    def _finish(self, command: _Command) -> None:
        """Service end: pass the channel and the slot on, apply the chip
        effect, then complete the issuer's event.

        The functional effect lands at command completion so that a
        concurrent reader never observes a half-finished write. A chip
        error fails this command's completion only; the channel and the
        slot have moved on either way.
        """
        channel = command.channel
        waiters = self._channel_waiters[channel]
        if waiters:
            self._serve(waiters.popleft())
        else:
            self._channel_busy[channel] = False
        if self._slot_waiters:
            self._dispatch(self._slot_waiters.popleft())
        else:
            self._free_slots += 1
        kind = command.kind
        result = None
        try:
            if kind == "read":
                result = self.chip.read(command.block, command.page)
            elif kind == "write":
                self.chip.program(command.block, command.page, command.data)
            else:
                self.chip.erase(command.block)
        except FlashError as error:
            # The issuer sees it raised at its yield. The chip's frames
            # would hold this command, a cycle only the collector frees.
            command.done.fail(error.with_traceback(None))
            return
        self.stats.record(kind, channel, command.service_time)
        command.done.succeed(result)
