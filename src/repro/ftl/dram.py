"""DRAM (battery-backed / NVM-class) multi-version backend.

The paper's fastest backend: byte-addressable persistent memory with
DRAM-like latencies (≤ 100 ns writes). Its very low write latency is what
makes it the *most* sensitive to clock skew in Figure 7 — the spurious
abort window is ``max(0, ε − t_w)``, and with t_w ≈ 200 ns essentially all
of NTP's millisecond skew turns into abort exposure.

Versions live in an in-memory map keyed by key, sorted youngest-first.
Watermark GC trims the list eagerly on every put.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional

from ..sim.core import Simulator
from ..sim.process import Process
from ..versioning import Version
from .base import Cpu, KVBackend, retained_versions

__all__ = ["DRAMBackend"]

#: NVM-class access latencies (§1: "byte-addressable persistent memory can
#: achieve DRAM latencies (<= 100ns)").
READ_LATENCY = 0.1e-6
DEFAULT_WRITE_LATENCY = 0.2e-6
#: Request-path CPU per op (shared API/dispatch cost, same as MFTL's).
DEFAULT_OP_CPU = 2.2e-6


class DRAMBackend(KVBackend):
    """Multi-version store in byte-addressable persistent memory."""

    def __init__(
        self,
        sim: Simulator,
        write_latency: float = DEFAULT_WRITE_LATENCY,
        op_cpu: float = DEFAULT_OP_CPU,
    ) -> None:
        super().__init__(sim)
        self.write_latency = write_latency
        self.op_cpu = op_cpu
        self.cpu = Cpu(sim)
        # key -> parallel lists (versions asc, values asc by version) for
        # O(log n) snapshot lookups via bisect.
        self._versions: Dict[str, List[Version]] = {}
        self._values: Dict[str, List[Any]] = {}

    # -- operations ---------------------------------------------------------

    def put(self, key: str, value: Any, version: Version,
            visible=None) -> Process:
        return self.sim.process(self._put(key, value, version, visible))

    def _put(self, key: str, value: Any, version: Version, visible):
        start = self.sim.now
        yield self.cpu.charge(self.op_cpu)
        yield self.sim.timeout(self.write_latency)
        versions = self._versions.setdefault(key, [])
        values = self._values.setdefault(key, [])
        index = bisect.bisect(versions, version)
        versions.insert(index, version)
        values.insert(index, value)
        if visible is not None:
            visible.succeed()
        self._trim(key)
        self.stats.observe_put(self.sim.now - start)

    def get(self, key: str, max_timestamp: Optional[float] = None) -> Process:
        return self.sim.process(self._get(key, max_timestamp))

    def _get(self, key: str, max_timestamp: Optional[float]):
        start = self.sim.now
        yield self.cpu.charge(self.op_cpu)
        yield self.sim.timeout(READ_LATENCY)
        result = self._lookup(key, max_timestamp)
        self.stats.observe_get(self.sim.now - start)
        return result

    def delete(self, key: str) -> Process:
        return self.sim.process(self._delete(key))

    def _delete(self, key: str):
        yield self.cpu.charge(self.op_cpu)
        yield self.sim.timeout(self.write_latency)
        self._versions.pop(key, None)
        self._values.pop(key, None)
        self.stats.deletes += 1

    # -- internals -------------------------------------------------------------

    def _lookup(self, key: str, max_timestamp: Optional[float]):
        versions = self._versions.get(key)
        if not versions:
            return None
        if max_timestamp is None:
            index = len(versions) - 1
        else:
            # Youngest version with timestamp <= max_timestamp: bisect on a
            # probe greater than any real version at that timestamp.
            probe = Version(max_timestamp, float("inf"))
            index = bisect.bisect(versions, probe) - 1
            if index < 0:
                return None
        return versions[index], self._values[key][index]

    def _trim(self, key: str) -> None:
        """Discard versions dead under the current watermark."""
        versions = self._versions[key]
        kept_desc = retained_versions(list(reversed(versions)), self.watermark)
        dropped = len(versions) - len(kept_desc)
        if dropped > 0:
            self._versions[key] = versions[dropped:]
            self._values[key] = self._values[key][dropped:]
            self.stats.records_discarded += dropped

    # -- introspection -----------------------------------------------------------

    def versions_of(self, key: str) -> List[Version]:
        return list(reversed(self._versions.get(key, [])))

    def contains(self, key: str) -> bool:
        return bool(self._versions.get(key))

    def keys(self) -> List[str]:
        return [key for key, versions in self._versions.items() if versions]

    def bulk_load(self, items) -> None:
        for key, value, version in items:
            versions = self._versions.setdefault(key, [])
            values = self._values.setdefault(key, [])
            index = bisect.bisect(versions, version)
            versions.insert(index, version)
            values.insert(index, value)
