"""VFTL: a multi-version KV layer stacked on a generic FTL (baseline).

This is the paper's "naive multi-version KV-store implemented using a
standard FTL" (§5.1): the comparison point that motivates unifying version
and flash management. The KV layer is the same
:class:`~repro.ftl.versionstore.PackedVersionStore` MFTL is, placed on a
different substrate:

* a page lives at an **LBA** of a :class:`~repro.ftl.sftl.GenericFTL`
  (``key -> (LBA, offset)`` here, ``LBA -> (block, page)`` below), which
  handles requests and garbage-collects on its own;
* the pool is the FTL's logical blocks, less a second reserve; the victim
  is the written LBA with the fewest valid records; reclaiming it is a
  read, the shared scan, and a trim.

Costs relative to MFTL, all structural, all visible in Table 1, and the
whole content of this file:

* two map lookups and two layer crossings per request (lower peak IOPS):
  every page read or program also pays the FTL's own per-op CPU;
* 10 % capacity reserved **at both levels**, so less effective space, more
  frequent GC, and more remap traffic queueing ahead of GETs;
* KV-layer GC remaps records that the FTL then remaps *again* at page
  granularity, instead of dropping dead versions in one integrated pass.

The silver lining the paper observes at 25 % GET: all that GC traffic
flows through the same page packer as foreground puts, so pages fill
faster and puts wait less on the packing deadline.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional

from ..sim.core import Simulator
from ..flash.device import FlashDevice
from .base import CapacityError, Cpu
from .gc import SpacePool
from .packing import DEFAULT_PACKING_DELAY
from .sftl import DEFAULT_FTL_OP_CPU, GenericFTL
from .versionstore import PackedVersionStore

__all__ = ["VFTLBackend", "DEFAULT_KV_OP_CPU"]

#: KV-layer request handling cost; the FTL layer charges its own
#: DEFAULT_FTL_OP_CPU on top, totalling ~2.85 µs per request — Table 1's
#: ~351 k req/s at 100 % GET.
DEFAULT_KV_OP_CPU = 2.2e-6


class _LbaPool(SpacePool):
    """The KV layer's free logical blocks, handed out first-in first-out."""

    #: Foreground writers stall below this many free LBAs; the rest is
    #: the KV-layer collector's remap destination.
    WRITER_MIN_FREE_LBAS = 4

    def __init__(self, sim: Simulator, num_lbas: int,
                 reclaimable: Callable[[], bool]) -> None:
        # Engage the KV-layer collector with proportional headroom.
        super().__init__(sim, deque(range(num_lbas)),
                         max(8, num_lbas // 16), reclaimable)
        #: LBAs holding a page; the collector's candidates. Victim ties
        #: break on this set's iteration order.
        self.written: set = set()

    @property
    def exhausted(self) -> bool:
        return not self._free

    @property
    def writers_must_wait(self) -> bool:
        return len(self._free) < self.WRITER_MIN_FREE_LBAS

    def allocate(self) -> int:
        if not self._free:
            raise CapacityError("KV layer out of logical blocks")
        lba = self._free.popleft()
        self.written.add(lba)
        self._signal_allocation()
        return lba

    def release(self, lba: int) -> None:
        self.written.discard(lba)
        self._free.append(lba)
        self.wake_writers()


class VFTLBackend(PackedVersionStore):
    """Split-architecture multi-version store: KV layer over generic FTL."""

    def __init__(
        self,
        sim: Simulator,
        device: FlashDevice,
        packing_delay: float = DEFAULT_PACKING_DELAY,
        reserve_fraction: float = 0.10,
    ) -> None:
        # One core serves both layers; the FTL starts its own collector.
        cpu = Cpu(sim)
        self.ftl = GenericFTL(
            sim, device, cpu=cpu, op_cpu=DEFAULT_FTL_OP_CPU,
            reserve_fraction=reserve_fraction)
        # The KV layer reserves another 10 % of the FTL's logical space for
        # its own remapping — the double reserve §5.1 calls out.
        self.usable_lbas = math.floor(
            self.ftl.usable_lbas * (1.0 - reserve_fraction))
        super().__init__(
            sim, device, cpu,
            _LbaPool(sim, self.usable_lbas, self._reclaimable),
            DEFAULT_KV_OP_CPU, packing_delay)

    # -- placement: a page is an LBA of the generic FTL ------------------------

    def _unit_of(self, address: int) -> int:
        return address

    def _read_page(self, address: int):
        return self.ftl.read(address)

    def _program_page(self, address: int, payload: tuple):
        return self.ftl.write(address, payload)

    def _bulk_place(self, address: int, payload: tuple) -> None:
        self.ftl.bulk_load([(address, payload)])

    # -- KV-layer garbage collection: trim LBAs ---------------------------------

    def _pick_victim(self) -> Optional[int]:
        best, best_valid = None, None
        for lba in self._allocator.written:
            if lba in self.collector.in_flight:
                continue
            if self._pins.pinned(lba):
                continue  # in-flight write or read; state is in motion
            valid = self._valid_records[lba]
            if valid >= self._stored_records[lba]:
                continue  # no garbage: collecting would only churn
            if best_valid is None or valid < best_valid:
                best, best_valid = lba, valid
        return best

    def _collect(self, victim: int):
        """Read a victim logical block, re-pack its live records, trim it.

        The trimmed page is garbage the FTL below still has to find and
        erase in a collection of its own.
        """
        yield self.cpu.charge(self.op_cpu)
        # Wait out the victim's in-flight initial write, if any.
        yield from self._pins.drain(victim)
        yield from self._scan_page(victim)
        yield from self._pins.drain(victim)
        self.ftl.trim(victim)
        self._recycle(victim)
