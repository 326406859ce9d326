"""MFTL: the unified multi-version key-value FTL (Contribution 3).

The paper's key storage idea: because flash remaps on every write anyway,
the FTL can keep *multiple versions per key* nearly for free. The store
itself (version lists, packing, trimming, the victim scan) is
:class:`~repro.ftl.versionstore.PackedVersionStore`, shared with the
split VFTL baseline. This file is only what makes the design *unified*:

* a page lives at a physical ``(block, page)``: keys map **directly** to
  record locations — one map access, one layer crossing, no LBA
  indirection (``Key -> (block, page, offset)``, Figure 3);
* the pool is the device's erased blocks, the victim is the block with
  the fewest valid records (wear breaks ties);
* version management is integrated with garbage collection: the scan
  simply *drops* versions that are dead under the watermark rule (§3.1)
  and the block is erased in the same pass — the structural advantage
  over VFTL, which must remap first and collect again at a second layer.
  A block whose erase fails has worn out and is retired.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..sim.core import Simulator
from ..flash.device import FlashDevice
from ..flash.errors import WearOutError
from .base import Cpu
from .gc import BlockAllocator
from .packing import DEFAULT_PACKING_DELAY
from .versionstore import PackedVersionStore

__all__ = ["MFTLBackend", "DEFAULT_MFTL_OP_CPU"]

#: Request-path CPU per MFTL operation: one layer crossing, one map access.
#: Calibrated so 100 % GET throughput sits near Table 1's 456 k req/s.
DEFAULT_MFTL_OP_CPU = 2.2e-6


class MFTLBackend(PackedVersionStore):
    """Versioned KV store with flash-integrated version management."""

    def __init__(
        self,
        sim: Simulator,
        device: FlashDevice,
        op_cpu: float = DEFAULT_MFTL_OP_CPU,
        packing_delay: float = DEFAULT_PACKING_DELAY,
        multi_version: bool = True,
    ) -> None:
        super().__init__(
            sim, device, Cpu(sim),
            BlockAllocator(sim, device, self._reclaimable),
            op_cpu, packing_delay, multi_version)
        #: Blocks retired after exhausting erase endurance.
        self.bad_blocks: set = set()

    # -- placement: a page is a physical (block, page) -----------------------

    def _unit_of(self, address: Tuple[int, int]) -> int:
        return address[0]

    def _read_page(self, address: Tuple[int, int]):
        return self.device.read_page(*address)

    def _program_page(self, address: Tuple[int, int], payload: tuple):
        return self.device.write_page(*address, payload)

    def _bulk_place(self, address: Tuple[int, int], payload: tuple) -> None:
        self.device.chip.program(*address, payload)

    # -- garbage collection: erase blocks -------------------------------------

    def _pick_victim(self) -> Optional[int]:
        best, best_valid = None, None
        for block in range(self.device.geometry.num_blocks):
            if self._allocator.is_free(block):
                continue
            if block == self._allocator.active_block:
                continue
            if block in self.collector.in_flight:
                continue
            if block in self.bad_blocks:
                continue
            if self._pins.pinned(block):
                continue  # in-flight write or read; state is in motion
            programmed = self.device.chip.programmed_pages(block)
            if programmed == 0:
                continue
            valid = self._valid_records[block]
            if valid >= self._stored_records[block]:
                continue  # no garbage: collecting would only churn
            # Greedy min-valid victim, tie-breaking on wear (least-erased
            # first) so cold garbage blocks still rotate into GC.
            score = (valid, self.device.chip.erase_count(block))
            if best_valid is None or score < best_valid:
                best, best_valid = block, score
        return best

    def _collect(self, victim: int):
        """Scan ``victim``: remap live records, drop dead versions, erase.

        Dropping dead versions here — instead of remapping them for a
        second-level collector to find later — is the unified design's
        whole advantage.
        """
        # Wait out in-flight programs so the scan sees the final frontier.
        yield from self._pins.drain(victim)
        for page in range(self.device.geometry.pages_per_block):
            if not self.device.chip.is_programmed(victim, page):
                continue
            yield from self._scan_page((victim, page))
            if self.op_cpu > 0:
                yield self.cpu.charge(self.op_cpu)
        yield from self._pins.drain(victim)
        try:
            yield self.device.erase_block(victim)
        except WearOutError:
            # Retire the block: its garbage is unreclaimable, capacity
            # shrinks, but service continues on the remaining blocks.
            self.bad_blocks.add(victim)
            self._stored_records[victim] = self._valid_records[victim]
            self.stats.gc_runs += 1
            self._allocator.wake_writers()
            return
        self._recycle(victim)
