"""Functional flash array: erase-before-write enforcement and data storage.

The chip layer stores page payloads (arbitrary Python objects — typically a
tuple of packed records) and enforces the NAND rules the paper builds on:

* a page may be programmed only once between erases (*erase-before-write*);
* erases happen at block granularity and bump the block's wear counter.

A "block" here is a *superblock*: its pages stripe across channels/dies
(see :meth:`~repro.flash.geometry.FlashGeometry.channel_of`), so programs
to different pages of one block may complete out of order — each die
preserves its own program order, which the striping guarantees by
construction for a log-structured writer.

Timing is *not* modelled here; see :mod:`repro.flash.device`.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .errors import (AddressError, EraseError, ProgramError,
                     ReadError, WearOutError)
from .geometry import FlashGeometry

__all__ = ["BlockState", "FlashChip"]


class _Unprogrammed:
    """Sentinel distinguishing an erased page from one storing None."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<UNPROGRAMMED>"


_UNPROGRAMMED = _Unprogrammed()


class BlockState:
    """Per-block bookkeeping: page payloads, programmed count, wear."""

    __slots__ = ("pages", "programmed", "erase_count")

    def __init__(self, pages_per_block: int) -> None:
        self.pages: List[Any] = [_UNPROGRAMMED] * pages_per_block
        self.programmed = 0
        self.erase_count = 0


class FlashChip:
    """The functional (data-holding) half of the simulated SSD."""

    def __init__(self, geometry: FlashGeometry,
                 endurance: Optional[int] = None) -> None:
        if endurance is not None and endurance < 1:
            raise ValueError(f"endurance must be >= 1, got {endurance}")
        self.geometry = geometry
        #: Maximum erases per block; None models unlimited endurance.
        self.endurance = endurance
        self._blocks = [
            BlockState(geometry.pages_per_block)
            for _ in range(geometry.num_blocks)
        ]

    # -- validation ---------------------------------------------------------

    def _check_block(self, block: int) -> BlockState:
        if not 0 <= block < self.geometry.num_blocks:
            raise AddressError(
                f"block {block} out of range [0, {self.geometry.num_blocks})")
        return self._blocks[block]

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.geometry.pages_per_block:
            raise AddressError(
                f"page {page} out of range "
                f"[0, {self.geometry.pages_per_block})")

    # -- operations ----------------------------------------------------------

    def program(self, block: int, page: int, data: Any) -> None:
        """Write ``data`` into (block, page); erase-before-write enforced."""
        state = self._check_block(block)
        self._check_page(page)
        if state.pages[page] is not _UNPROGRAMMED:
            raise ProgramError(
                f"page ({block}, {page}) already programmed since last "
                "erase (erase-before-write violation)")
        state.pages[page] = data
        state.programmed += 1

    def read(self, block: int, page: int) -> Any:
        """Return the payload of a programmed page."""
        state = self._check_block(block)
        self._check_page(page)
        payload = state.pages[page]
        if payload is _UNPROGRAMMED:
            raise ReadError(f"read of unprogrammed page ({block}, {page})")
        return payload

    def is_worn(self, block: int) -> bool:
        """Whether ``block`` has exhausted its erase endurance."""
        if self.endurance is None:
            return False
        return self._check_block(block).erase_count >= self.endurance

    def erase(self, block: int) -> None:
        """Erase a whole block, making every page programmable again.

        Raises :class:`WearOutError` once the block's erase count has
        reached the endurance limit; the block's current contents stay
        readable but it can never be erased or reprogrammed.
        """
        state = self._check_block(block)
        if self.is_worn(block):
            raise WearOutError(
                f"block {block} exhausted its endurance of "
                f"{self.endurance} erases")
        if state.programmed == 0 and state.erase_count > 0:
            raise EraseError(f"erase of already-erased block {block}")
        state.pages = [_UNPROGRAMMED] * self.geometry.pages_per_block
        state.programmed = 0
        state.erase_count += 1

    # -- introspection --------------------------------------------------------

    def is_programmed(self, block: int, page: int) -> bool:
        """Whether (block, page) holds data."""
        state = self._check_block(block)
        self._check_page(page)
        return state.pages[page] is not _UNPROGRAMMED

    def programmed_pages(self, block: int) -> int:
        """Number of programmed pages in ``block``."""
        return self._check_block(block).programmed

    def erase_count(self, block: int) -> int:
        """How many times ``block`` has been erased."""
        return self._check_block(block).erase_count

    def wear_counters(self) -> List[int]:
        """Erase counts for all blocks (wear-leveling diagnostics)."""
        return [state.erase_count for state in self._blocks]
