"""Generic single-version page FTL (the paper's "standard FTL").

Presents the classic block-device abstraction: a logical block address
(LBA) space over physical flash, remapping every LBA write to a fresh page
(Figure 2 of the paper). This is the substrate the split VFTL design
stacks its multi-version KV layer on. (The "SFTL" storage mode of
Figure 6 is not this class but the unified FTL with version retention
clamped to one, ``MFTLBackend(multi_version=False)``, so that the
comparison isolates multi-versioning.)

Structure:

* ``map``: LBA → (block, page); ``reverse``: (block, page) → LBA.
* log-structured writes through a shared append frontier
  (:class:`~repro.ftl.gc.BlockAllocator`);
* background GC (the shared :class:`~repro.ftl.gc.Collector`) picks the
  block with the fewest valid pages, remaps those pages, and erases it
  (greedy cost-benefit);
* 10 % of physical capacity is reserved for remapping (§5.1), enforced as
  the exported :attr:`usable_lbas` limit.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from ..sim.core import Simulator
from ..sim.process import Process
from ..flash.device import FlashDevice
from ..flash.errors import WearOutError
from .base import BlockPins, CapacityError, Cpu
from .gc import BlockAllocator, Collector

__all__ = ["GenericFTL", "DEFAULT_FTL_OP_CPU"]

#: Request-path CPU per FTL-level operation (the second "layer crossing"
#: VFTL pays and MFTL does not). Calibrated so 100 % GET throughput lands
#: near Table 1 (MFTL ≈ 456 k, VFTL ≈ 351 k requests/s).
DEFAULT_FTL_OP_CPU = 0.65e-6


class GenericFTL:
    """A single-version, page-granularity flash translation layer."""

    def __init__(
        self,
        sim: Simulator,
        device: FlashDevice,
        cpu: Optional[Cpu] = None,
        op_cpu: float = DEFAULT_FTL_OP_CPU,
        reserve_fraction: float = 0.10,
    ) -> None:
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError(
                f"reserve_fraction must be in [0, 1), got {reserve_fraction}")
        self.sim = sim
        self.device = device
        self.cpu = cpu
        self.op_cpu = op_cpu
        self.reserve_fraction = reserve_fraction
        geometry = device.geometry
        self.usable_lbas = math.floor(
            geometry.total_pages * (1.0 - reserve_fraction))
        self._map: Dict[int, Tuple[int, int]] = {}
        self._reverse: Dict[Tuple[int, int], int] = {}
        self._valid_pages = [0] * geometry.num_blocks
        self._allocator = BlockAllocator(
            sim, device,
            reclaimable=lambda: (self._pick_victim() is not None
                                 or bool(self.collector.in_flight)))
        self._pins = BlockPins(sim)
        #: Blocks retired after exhausting their erase endurance; they
        #: never return to the free pool (bad-block management).
        self.bad_blocks: set = set()
        self.pages_remapped = 0
        self.gc_runs = 0
        self.collector = Collector(
            sim, self._allocator, self._pick_victim, self._collect)

    # -- public API -------------------------------------------------------------

    def write(self, lba: int, data: Any) -> Process:
        """Remap ``lba`` to a fresh page holding ``data``."""
        self._check_lba(lba)
        return self.sim.process(self._write(lba, data))

    def read(self, lba: int) -> Process:
        """Read the page currently mapped at ``lba``."""
        self._check_lba(lba)
        return self.sim.process(self._read(lba))

    def trim(self, lba: int) -> None:
        """Drop the mapping for ``lba`` (its page becomes garbage)."""
        self._check_lba(lba)
        self._invalidate(lba)

    def is_mapped(self, lba: int) -> bool:
        return lba in self._map

    def bulk_load(self, items) -> None:
        """Map (lba, data) pairs directly, bypassing simulated timing."""
        for lba, data in items:
            self._check_lba(lba)
            block, page = self._allocator.allocate()
            self.device.chip.program(block, page, data)
            self._invalidate(lba)
            self._map[lba] = (block, page)
            self._reverse[(block, page)] = lba
            self._valid_pages[block] += 1

    @property
    def mapped_count(self) -> int:
        return len(self._map)

    # -- op implementations --------------------------------------------------------

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.usable_lbas:
            raise ValueError(
                f"LBA {lba} out of range [0, {self.usable_lbas})")

    def _write(self, lba: int, data: Any):
        if self.cpu is not None and self.op_cpu > 0:
            yield self.cpu.charge(self.op_cpu)
        yield from self._allocator.writer_gate()
        block, page = self._allocator.allocate()
        # Issue the program in the same step as the allocation so
        # same-block programs reach the device in frontier order; pin the
        # block so GC never scans or erases it while this program is in
        # flight.
        self._pins.pin(block)
        write_done = self.device.write_page(block, page, data)
        try:
            yield write_done
        finally:
            self._pins.unpin(block)
        self._invalidate(lba)
        self._map[lba] = (block, page)
        self._reverse[(block, page)] = lba
        self._valid_pages[block] += 1

    def _read(self, lba: int):
        if self.cpu is not None and self.op_cpu > 0:
            yield self.cpu.charge(self.op_cpu)
        location = self._map.get(lba)
        if location is None:
            return None
        block, page = location
        self._pins.pin(block)
        try:
            data = yield self.device.read_page(block, page)
        finally:
            self._pins.unpin(block)
        return data

    def _invalidate(self, lba: int) -> None:
        location = self._map.pop(lba, None)
        if location is not None:
            del self._reverse[location]
            self._valid_pages[location[0]] -= 1

    # -- garbage collection ----------------------------------------------------------

    def _pick_victim(self) -> Optional[int]:
        """The non-free, non-active block with the fewest valid pages.

        Only blocks that would actually free space (some invalid pages)
        qualify; full-valid blocks are skipped.
        """
        geometry = self.device.geometry
        best, best_valid = None, None
        for block in range(geometry.num_blocks):
            if self._allocator.is_free(block):
                continue
            if block == self._allocator.active_block:
                continue
            if block in self.collector.in_flight:
                continue
            if block in self.bad_blocks:
                continue
            programmed = self.device.chip.programmed_pages(block)
            if programmed == 0:
                continue
            valid = self._valid_pages[block]
            if valid >= programmed and programmed >= geometry.pages_per_block:
                continue  # nothing reclaimable
            # Prefer the fewest valid pages (greedy), tie-breaking on wear
            # so garbage in seldom-erased blocks is collected first.
            score = (valid, self.device.chip.erase_count(block))
            if best_valid is None or score < best_valid:
                best, best_valid = block, score
        return best

    def _collect(self, victim: int):
        """Remap every valid page of ``victim``, then erase it."""
        # Wait out in-flight programs to the victim so the scan below sees
        # its final write frontier.
        yield from self._pins.drain(victim)
        for page in range(self.device.geometry.pages_per_block):
            if not self.device.chip.is_programmed(victim, page):
                continue
            lba = self._reverse.get((victim, page))
            if lba is None:
                continue
            self._pins.pin(victim)
            try:
                data = yield self.device.read_page(victim, page)
            finally:
                self._pins.unpin(victim)
            if self._reverse.get((victim, page)) != lba:
                continue  # overwritten while we were reading
            new_block, new_page = self._allocator.allocate()
            self._pins.pin(new_block)
            write_done = self.device.write_page(new_block, new_page, data)
            try:
                yield write_done
            finally:
                self._pins.unpin(new_block)
            # Re-check: the LBA may have been rewritten or trimmed while the
            # remap write was in flight; if so the fresh copy is garbage.
            if self._reverse.get((victim, page)) == lba:
                del self._reverse[(victim, page)]
                self._valid_pages[victim] -= 1
                self._map[lba] = (new_block, new_page)
                self._reverse[(new_block, new_page)] = lba
                self._valid_pages[new_block] += 1
                self.pages_remapped += 1
            if self.cpu is not None and self.op_cpu > 0:
                yield self.cpu.charge(self.op_cpu)
        if self._valid_pages[victim] != 0:
            # A racing writer landed data here? Cannot happen: the victim is
            # never the active block. Guard anyway.
            raise CapacityError(
                f"GC victim {victim} still has valid pages after remap")
        yield from self._pins.drain(victim)
        try:
            yield self.device.erase_block(victim)
        except WearOutError:
            # Retire the block: capacity shrinks but service continues.
            self.bad_blocks.add(victim)
            self.gc_runs += 1
            self._allocator.wake_writers()
            return
        self._allocator.release(victim)
        self.gc_runs += 1
