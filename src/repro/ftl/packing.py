"""Record packing into flash pages.

§5 of the paper: key-value records are 512 B while flash pages are 4 KB, so
the FTL "employs a packing logic that waits for up to 1 ms (tunable) to
pack data of multiple keys into a page". Both puts and GC-remapped records
flow through the same packer, which is why write-heavy mixes see *lower*
put latency on VFTL (its extra GC traffic fills pages faster, shortening
the packing wait) — the effect behind Table 1's 25 % GET row.

The packer is storage-engine agnostic: the owning FTL supplies a
``write_page(records)`` coroutine that allocates a page, programs it, and
returns its physical address. Each submitted record gets an event that
fires with ``(address, offset)`` once the record is durable.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from ..sim.core import Simulator
from ..sim.events import Event

__all__ = ["PagePacker", "DEFAULT_PACKING_DELAY"]

#: §5: "waits for up to 1 ms (tunable)".
DEFAULT_PACKING_DELAY = 1e-3


class PagePacker:
    """Accumulates fixed-size records and writes them a page at a time.

    A flush happens when the buffer holds a full page of records, or
    ``packing_delay`` seconds after the oldest buffered record arrived,
    whichever comes first.
    """

    def __init__(
        self,
        sim: Simulator,
        write_page: Callable[[List[Any]], Any],
        records_per_page: int,
        packing_delay: float = DEFAULT_PACKING_DELAY,
    ) -> None:
        if records_per_page < 1:
            raise ValueError(
                f"records_per_page must be >= 1, got {records_per_page}")
        if packing_delay < 0:
            raise ValueError(
                f"packing_delay must be >= 0, got {packing_delay}")
        self.sim = sim
        self.write_page = write_page
        self.records_per_page = records_per_page
        self.packing_delay = packing_delay
        self._buffer: List[Tuple[Any, Event]] = []
        #: Bumped on every flush so a stale deadline timer can detect that
        #: the batch it was guarding already went out.
        self._generation = 0
        self.pages_written = 0
        self.records_written = 0

    def submit(self, record: Any) -> Event:
        """Buffer ``record``; the event fires with (address, offset)."""
        placed = self.sim.event()
        self._buffer.append((record, placed))
        if len(self._buffer) >= self.records_per_page:
            self._flush()
        elif len(self._buffer) == 1 and self.packing_delay > 0:
            self.sim.process(self._deadline(self._generation))
        elif self.packing_delay == 0:
            self._flush()
        return placed

    # -- internals -----------------------------------------------------------

    def _deadline(self, generation: int):
        yield self.sim.timeout(self.packing_delay)
        if generation == self._generation and self._buffer:
            self._flush()

    def _flush(self) -> None:
        batch, self._buffer = self._buffer[:self.records_per_page], \
            self._buffer[self.records_per_page:]
        self._generation += 1
        if self._buffer:
            # Records remain; restart the deadline clock for them.
            if len(self._buffer) >= self.records_per_page:
                self._flush()
            elif self.packing_delay > 0:
                self.sim.process(self._deadline(self._generation))
        self.sim.process(self._write_batch(batch))

    def _write_batch(self, batch: List[Tuple[Any, Event]]):
        records = [record for record, _ in batch]
        address = yield from self.write_page(records)
        self.pages_written += 1
        self.records_written += len(records)
        for offset, (_, placed) in enumerate(batch):
            placed.succeed((address, offset))
