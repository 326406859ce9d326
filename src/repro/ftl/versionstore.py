"""The multi-version record store that MFTL and VFTL both are.

Table 1 compares two *placements* of the same store. Either engine keeps
a version list per key sorted by create timestamp, packs 512 B records
into 4 KB pages through one write buffer (§5), serves a record from that
buffer until its page lands, trims versions under the watermark rule of
§3.1, and collects garbage by scanning a victim's pages: versions dead
under the watermark are dropped, live ones detach back into the write
buffer. :class:`PackedVersionStore` is that store, once, so a gap
between the two engines is a property of the designs and cannot be
drift between copies.

An engine supplies only what the paper says differs:

* its **placement**: which collection unit an address belongs to
  (:meth:`_unit_of`), and how to read, program and bulk-place one page
  of records at an address (:meth:`_read_page`, :meth:`_program_page`,
  :meth:`_bulk_place`);
* its **pool** of erased units (a :class:`~repro.ftl.gc.SpacePool`);
* its **victim choice** (:meth:`_pick_victim`) and its **reclaim step**
  (:meth:`_collect`, built on :meth:`_scan_page` and :meth:`_recycle`).

``multi_version=False`` is the "SFTL" mode of Figure 6: every put
supersedes the previous version immediately, so snapshot reads in the
past miss and the corresponding transactions abort.
"""

from __future__ import annotations

import abc
import bisect
from typing import Any, Dict, List, Optional

from ..sim.core import Simulator
from ..sim.events import Event
from ..sim.process import Process
from ..flash.device import FlashDevice
from ..versioning import Version
from .base import BlockPins, Cpu, KVBackend, retained_versions
from .gc import Collector, SpacePool
from .packing import PagePacker

__all__ = ["PackedVersionStore"]


class _Entry:
    """One version of one key inside the mapping table."""

    __slots__ = ("version", "address", "unit", "offset", "cached_value",
                 "alive")

    def __init__(self, version: Version, cached_value: Any) -> None:
        self.version = version
        #: Where the record's page lives once durable (engine-defined);
        #: None while the record is buffered in the packer.
        self.address: Any = None
        #: The collection unit ``address`` belongs to (pins, valid counts).
        self.unit: Optional[int] = None
        self.offset: Optional[int] = None
        #: Value served from the write buffer until the page lands.
        self.cached_value: Any = cached_value
        self.alive = True


class PackedVersionStore(KVBackend):
    """Versioned KV store over packed pages, placement left to the engine."""

    def __init__(self, sim: Simulator, device: FlashDevice, cpu: Cpu,
                 pool: SpacePool, op_cpu: float, packing_delay: float,
                 multi_version: bool = True) -> None:
        super().__init__(sim)
        self.device = device
        self.cpu = cpu
        self.op_cpu = op_cpu
        self.multi_version = multi_version
        self.records_per_page = max(
            1, device.geometry.page_size // self.record_size)
        self._map: Dict[str, List[_Entry]] = {}
        # Per-unit record counts; a new pool's units are all still free.
        self._valid_records = [0] * pool.free_count
        #: Records physically stored per unit (reset when it is recycled);
        #: a unit is a GC victim only when valid < stored, i.e. it holds
        #: actual garbage — compacting garbage-free partial pages would
        #: just cycle them through the packer forever.
        self._stored_records = [0] * pool.free_count
        self._allocator = pool
        self._pins = BlockPins(sim)
        self.packer = PagePacker(
            sim, self._write_packed_page, self.records_per_page,
            packing_delay)
        self.collector = Collector(
            sim, pool, self._pick_victim, self._collect)

    # -- what an engine supplies ---------------------------------------------

    @abc.abstractmethod
    def _unit_of(self, address: Any) -> int:
        """The collection unit (pool unit, GC victim) holding ``address``."""

    @abc.abstractmethod
    def _read_page(self, address: Any) -> Event:
        """Event that fires with the records of the page at ``address``."""

    @abc.abstractmethod
    def _program_page(self, address: Any, payload: tuple) -> Event:
        """Event that fires once ``payload`` is durable at ``address``."""

    @abc.abstractmethod
    def _bulk_place(self, address: Any, payload: tuple) -> None:
        """Put ``payload`` at ``address`` now, bypassing simulated timing."""

    @abc.abstractmethod
    def _pick_victim(self) -> Optional[int]:
        """The unit the collector should reclaim next, or None."""

    @abc.abstractmethod
    def _collect(self, victim: int):
        """Generator: scan ``victim``'s pages, then reclaim the unit."""

    # -- public API ---------------------------------------------------------

    def put(self, key: str, value: Any, version: Version,
            visible=None) -> Process:
        return self.sim.process(self._put(key, value, version, visible))

    def get(self, key: str, max_timestamp: Optional[float] = None) -> Process:
        return self.sim.process(self._get(key, max_timestamp))

    def delete(self, key: str) -> Process:
        return self.sim.process(self._delete(key))

    def versions_of(self, key: str) -> List[Version]:
        entries = self._map.get(key, [])
        return [entry.version for entry in reversed(entries)]

    def contains(self, key: str) -> bool:
        return bool(self._map.get(key))

    def keys(self) -> List[str]:
        return [key for key, entries in self._map.items() if entries]

    @property
    def write_amplification(self) -> float:
        """Physical page writes per host-data page equivalent.

        1.0 means every flash write carried fresh host data at full
        density; anything above is GC remapping and packing slack. The
        unified-vs-split comparison of §5.1 ("VFTL remaps 15% more
        data") is exactly a write-amplification gap.
        """
        host_pages = (self.stats.host_records_written
                      / self.records_per_page)
        if host_pages == 0:
            return 0.0
        return self.device.stats.page_writes / host_pages

    def bulk_load(self, items) -> None:
        """Place records a page at a time, bypassing simulated timing."""
        items = list(items)
        for start in range(0, len(items), self.records_per_page):
            chunk = items[start:start + self.records_per_page]
            address = self._allocator.allocate()
            unit = self._unit_of(address)
            self._bulk_place(address, tuple(
                (key, version, value) for key, value, version in chunk))
            self._stored_records[unit] += len(chunk)
            for offset, (key, _value, version) in enumerate(chunk):
                entry = _Entry(version, cached_value=None)
                self._insert(key, entry)
                self._attach(entry, address, unit, offset)

    # -- request path ---------------------------------------------------------

    def _put(self, key: str, value: Any, version: Version, visible=None):
        start = self.sim.now
        yield self.cpu.charge(self.op_cpu)
        yield from self._allocator.writer_gate()
        entry = _Entry(version, cached_value=value)
        self._insert(key, entry)
        if visible is not None:
            # Readable from the write buffer from this instant on.
            visible.succeed()
        self._trim(key)
        # The flush attaches the entry to its page synchronously; the
        # placed event only signals durability for this put's latency.
        placed = self.packer.submit((key, version, value, entry))
        yield placed
        self.stats.observe_put(self.sim.now - start)

    def _get(self, key: str, max_timestamp: Optional[float]):
        start = self.sim.now
        yield self.cpu.charge(self.op_cpu)
        entry = self._lookup(key, max_timestamp)
        if entry is None:
            self.stats.observe_get(self.sim.now - start)
            return None
        if entry.address is None:
            # Buffer hit: the record is still in the packer's DRAM buffer.
            value = entry.cached_value
            self.stats.observe_get(self.sim.now - start)
            return entry.version, value
        version, offset = entry.version, entry.offset
        address, unit = entry.address, entry.unit
        self._pins.pin(unit)
        try:
            records = yield self._read_page(address)
        finally:
            self._pins.unpin(unit)
        record_key, record_version, value = records[offset]
        if record_key != key or record_version != version:
            raise RuntimeError(
                f"mapping corruption: expected {key}/{version} at "
                f"{address}+{offset}, found {record_key}/{record_version}")
        self.stats.observe_get(self.sim.now - start)
        return version, value

    def _delete(self, key: str):
        yield self.cpu.charge(self.op_cpu)
        entries = self._map.pop(key, [])
        for entry in entries:
            self._kill(entry)
        self.stats.deletes += 1

    # -- the mapping table --------------------------------------------------------

    def _insert(self, key: str, entry: _Entry) -> None:
        entries = self._map.setdefault(key, [])
        index = bisect.bisect(
            [existing.version for existing in entries], entry.version)
        entries.insert(index, entry)

    def _lookup(self, key: str,
                max_timestamp: Optional[float]) -> Optional[_Entry]:
        entries = self._map.get(key)
        if not entries:
            return None
        if max_timestamp is None:
            return entries[-1]
        probe = Version(max_timestamp, float("inf"))
        versions = [entry.version for entry in entries]
        index = bisect.bisect(versions, probe) - 1
        if index < 0:
            return None
        return entries[index]

    def _entry_at(self, key: str, version: Version, address: Any,
                  offset: int) -> Optional[_Entry]:
        for entry in self._map.get(key, []):
            if (entry.alive and entry.version == version
                    and entry.address == address
                    and entry.offset == offset):
                return entry
        return None

    def _attach(self, entry: _Entry, address: Any, unit: int,
                offset: int) -> None:
        entry.address = address
        entry.unit = unit
        entry.offset = offset
        entry.cached_value = None
        self._valid_records[unit] += 1

    # -- version retention ------------------------------------------------------------

    def _kill(self, entry: _Entry) -> None:
        if not entry.alive:
            return
        entry.alive = False
        if entry.address is not None:
            self._valid_records[entry.unit] -= 1
        entry.cached_value = None

    def _trim(self, key: str) -> None:
        """Drop versions dead under the watermark (or all-but-newest in
        single-version mode)."""
        entries = self._map.get(key)
        if not entries:
            return
        if self.multi_version:
            versions_desc = [entry.version for entry in reversed(entries)]
            kept = len(retained_versions(versions_desc, self.watermark))
        else:
            kept = 1
        dropped = len(entries) - kept
        if dropped <= 0:
            return
        for entry in entries[:dropped]:
            self._kill(entry)
            self.stats.records_discarded += 1
        self._map[key] = entries[dropped:]

    def _is_retained(self, key: str, version: Version) -> bool:
        entries = self._map.get(key, [])
        versions_desc = [entry.version for entry in reversed(entries)]
        if self.multi_version:
            return version in retained_versions(versions_desc, self.watermark)
        return bool(versions_desc) and version == versions_desc[0]

    def _retire(self, key: str, entry: _Entry) -> None:
        self._kill(entry)
        entries = self._map.get(key)
        if entries is not None:
            entries.remove(entry)
            if not entries:
                del self._map[key]
        self.stats.records_discarded += 1

    # -- physical write path --------------------------------------------------------------

    def _write_packed_page(self, records: List[Any]):
        """Packer callback: allocate a page, program it, return its address.

        Waits for GC to recycle a unit if the pool is momentarily dry —
        safe because GC never waits on the packer (records detach first).

        The unit stays pinned while the program is in flight so the
        collector cannot pick it, and entries attach to the new page
        *synchronously* once the program completes, under the same pin:
        the mapping table and per-unit valid counts are never observable
        out of sync.
        """
        pool = self._allocator
        while pool.exhausted:
            yield pool.state_change()
        address = pool.allocate()
        unit = self._unit_of(address)
        self._stored_records[unit] += len(records)
        payload = tuple((key, version, value)
                        for key, version, value, _entry in records)
        self._pins.pin(unit)
        try:
            yield self._program_page(address, payload)
            for offset, (_key, _version, _value, entry) in \
                    enumerate(records):
                if entry.alive and entry.address is None:
                    self._attach(entry, address, unit, offset)
                # else: superseded while buffered; the flash copy is
                # garbage and GC will skip it.
        finally:
            self._pins.unpin(unit)
        return address

    # -- garbage collection ------------------------------------------------------------------

    def _reclaimable(self) -> bool:
        """Whether a stalled writer may still hope for space: some unit
        holds dead records (ignoring pins) or a collection is running."""
        return (any(valid < stored for valid, stored in
                    zip(self._valid_records, self._stored_records))
                or bool(self.collector.in_flight))

    def _scan_page(self, address: Any):
        """Generator: read one page of a victim and empty it.

        Versions dead under the watermark are dropped on the spot. Live
        records *detach* into the write buffer synchronously (their
        entries serve reads from DRAM) and re-enter the packer; the
        victim is reclaimed without waiting for the new placements. This
        avoids a cycle where GC waits on packer flushes whose page
        allocations in turn wait on GC.
        """
        unit = self._unit_of(address)
        self._pins.pin(unit)
        try:
            records = yield self._read_page(address)
        finally:
            self._pins.unpin(unit)
        if records is None:
            return  # the page's program failed; nothing ever attached
        for offset, (key, version, value) in enumerate(records):
            entry = self._entry_at(key, version, address, offset)
            if entry is None:
                continue  # already superseded, moved, or deleted
            if not self._is_retained(key, version):
                self._retire(key, entry)
                continue
            # Detach: reads now hit the buffered copy in DRAM.
            self._valid_records[unit] -= 1
            entry.address = None
            entry.unit = None
            entry.offset = None
            entry.cached_value = value
            self.packer.submit((key, version, value, entry))
            self.stats.records_remapped += 1

    def _recycle(self, victim: int) -> None:
        """Hand an emptied victim back to the pool."""
        self._stored_records[victim] = 0
        self._allocator.release(victim)
        self.stats.gc_runs += 1
