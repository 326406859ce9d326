"""Static wear leveling (§2.2: "the FTL distributes writes uniformly
across physical locations, so the flash cells wear at the same rate").

Dynamic wear leveling (least-worn free-block selection plus wear-aware
victim tie-breaking — built into the allocator and GC) equalizes wear
among blocks that *circulate*. Blocks pinned down by cold, long-lived
data never circulate and stay at low wear while the rest of the device
burns. The static wear leveler watches the spread and, when
``max_wear − min_wear`` exceeds a threshold, force-collects the
least-worn eligible block: its cold data moves into the hot rotation and
the young block joins the free pool.

Works against both :class:`~repro.ftl.sftl.GenericFTL` and
:class:`~repro.ftl.mftl.MFTLBackend`: each reclaims blocks through a
:class:`~repro.ftl.gc.Collector`, and the leveler hands that collector
one more victim, so a block is never collected twice at once.
"""

from __future__ import annotations

from typing import Optional

from ..sim.process import Process

__all__ = ["StaticWearLeveler", "DEFAULT_WEAR_THRESHOLD"]

DEFAULT_WEAR_THRESHOLD = 8


class StaticWearLeveler:
    """Periodic cold-block rotation for an FTL."""

    def __init__(self, ftl, threshold: int = DEFAULT_WEAR_THRESHOLD,
                 interval: float = 50e-3) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.ftl = ftl
        self.threshold = threshold
        self.interval = interval
        self.migrations = 0
        self._daemon: Optional[Process] = None

    def start(self) -> Process:
        if self._daemon is None:
            self._daemon = self.ftl.sim.process(self._loop())
        return self._daemon

    # -- block selection ------------------------------------------------------

    def _eligible(self, block: int) -> bool:
        ftl = self.ftl
        if ftl._allocator.is_free(block):
            return False
        if block == ftl._allocator.active_block:
            return False
        if block in ftl.collector.in_flight:
            return False
        if block in ftl.bad_blocks:
            return False
        return ftl.device.chip.programmed_pages(block) > 0

    def _imbalance_victim(self) -> Optional[int]:
        chip = self.ftl.device.chip
        num_blocks = self.ftl.device.geometry.num_blocks
        wears = [chip.erase_count(block) for block in range(num_blocks)
                 if block not in self.ftl.bad_blocks]
        if not wears or max(wears) - min(wears) <= self.threshold:
            return None
        eligible = [block for block in range(num_blocks)
                    if self._eligible(block)]
        if not eligible:
            return None
        return min(eligible, key=chip.erase_count)

    # -- the loop ----------------------------------------------------------------

    def _loop(self):
        ftl = self.ftl
        while True:
            yield ftl.sim.timeout(self.interval)
            victim = self._imbalance_victim()
            if victim is None:
                continue
            self.migrations += 1
            yield from ftl.collector.collect(victim)
