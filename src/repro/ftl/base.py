"""Backend interface shared by the four storage engines.

A *backend* is the per-server storage engine SEMEL runs on. The paper
evaluates four: DRAM, SFTL (single-version generic FTL), VFTL (a
multi-version KV layer stacked on a generic FTL), and MFTL (the unified
multi-version FTL — the paper's Contribution 3). All expose the same
versioned API so SEMEL/MILANA code is backend-agnostic:

* ``put(key, value, version)`` — add a version (multi-version engines keep
  older ones; SFTL overwrites).
* ``get(key, max_timestamp)`` — youngest version with
  ``timestamp <= max_timestamp`` (``None`` means newest).
* ``delete(key)`` — drop all versions.
* ``set_watermark(ts)`` — lower bound on live snapshot timestamps; GC may
  discard every version older than the youngest one at or below it (§3.1).

Operations return simulation processes; their value is the op result.

Backends also model the **request-path CPU**: the paper's emulator is
CPU-bound at 100 % GET (one kernel boundary crossing per I/O), and the
MFTL-vs-VFTL gap at high GET rates comes from VFTL paying two map lookups
and two layer crossings per request. :class:`Cpu` serializes per-op
overhead through a single core; an op charges it with ``yield
self.cpu.charge(seconds)``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..histogram import LatencyHistogram
from ..sim.core import Simulator
from ..sim.process import Process
from ..sim.resources import Resource
from ..versioning import Version

__all__ = [
    "Cpu",
    "BackendStats",
    "KVBackend",
    "GetResult",
    "retained_versions",
    "BlockPins",
    "CapacityError",
]


class CapacityError(Exception):
    """The device has no reclaimable space left for the requested write."""

#: Result of a get: (version, value) or None when no version qualifies.
GetResult = Optional[Tuple[Version, Any]]


class Cpu(Resource):
    """A single request-processing core charging fixed per-op costs.

    ``yield cpu.charge(seconds)`` occupies the core for ``seconds``: one
    :meth:`~repro.sim.resources.Resource.hold` of the core's one slot, so
    a charge on an idle core is one heap entry and no process, and
    charges queue FIFO behind a busy core. ``busy_time`` is the total
    charged so far, counted as each charge ends.
    """

    __slots__ = ()

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, capacity=1)

    charge = Resource.hold

    @property
    def busy_time(self) -> float:
        return self.held_time


@dataclass
class BackendStats:
    """Counters every backend maintains; used by Table 1 and invariants."""

    gets: int = 0
    puts: int = 0
    deletes: int = 0
    #: Host-visible records accepted (puts); the write-amplification
    #: denominator.
    host_records_written: int = 0
    #: Records rewritten by garbage collection (remap traffic).
    records_remapped: int = 0
    #: Records dropped by garbage collection as dead versions.
    records_discarded: int = 0
    gc_runs: int = 0
    get_latency_total: float = 0.0
    put_latency_total: float = 0.0
    #: Full latency distributions (p50/p95/p99 via .summary()).
    get_histogram: LatencyHistogram = field(
        default_factory=LatencyHistogram)
    put_histogram: LatencyHistogram = field(
        default_factory=LatencyHistogram)

    def observe_get(self, latency: float) -> None:
        self.gets += 1
        self.get_latency_total += latency
        self.get_histogram.record(latency)

    def observe_put(self, latency: float) -> None:
        self.puts += 1
        self.host_records_written += 1
        self.put_latency_total += latency
        self.put_histogram.record(latency)

    @property
    def mean_get_latency(self) -> float:
        return self.get_latency_total / self.gets if self.gets else 0.0

    @property
    def mean_put_latency(self) -> float:
        return self.put_latency_total / self.puts if self.puts else 0.0


class KVBackend(abc.ABC):
    """Abstract versioned key-value storage engine."""

    #: Size of one (key, value, version) record on media; the paper fixes
    #: 512 B so eight records pack into a 4 KB flash page.
    record_size: int = 512

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.stats = BackendStats()
        self.watermark = float("-inf")

    # -- async operations -------------------------------------------------

    @abc.abstractmethod
    def put(self, key: str, value: Any, version: Version,
            visible=None) -> Process:
        """Store a new version; fires when the write is durable.

        ``visible``, if given, is an Event succeeded as soon as the
        version is *readable* (inserted into the in-memory mapping /
        write buffer) — for flash engines that is well before the page
        program completes. MILANA clears prepared marks at visibility,
        not durability (§3.2: record durability is already guaranteed by
        replicated prepare records)."""

    @abc.abstractmethod
    def get(self, key: str,
            max_timestamp: Optional[float] = None) -> Process:
        """Youngest version with timestamp <= ``max_timestamp``.

        Fires with ``(version, value)`` or ``None``.
        """

    @abc.abstractmethod
    def delete(self, key: str) -> Process:
        """Drop all versions of ``key``."""

    # -- synchronous control/introspection ---------------------------------

    def set_watermark(self, timestamp: float) -> None:
        """Raise the GC lower bound; never moves backwards."""
        self.watermark = max(self.watermark, timestamp)

    @abc.abstractmethod
    def versions_of(self, key: str) -> List[Version]:
        """All retained versions of ``key``, youngest first (diagnostic)."""

    @abc.abstractmethod
    def contains(self, key: str) -> bool:
        """Whether any version of ``key`` is retained."""

    @abc.abstractmethod
    def keys(self) -> List[str]:
        """All keys with at least one retained version (recovery scans)."""

    def get_history(self, key: str, from_timestamp: float,
                    to_timestamp: float) -> Process:
        """All retained versions of ``key`` in [from, to], oldest first.

        Fires with a list of ``(version, value)`` pairs. Availability is
        bounded by the GC watermark (§3.1): versions older than the
        retention rule allows are gone. Each version costs one read
        through the engine's normal path.
        """
        return self.sim.process(
            self._get_history(key, from_timestamp, to_timestamp))

    def _get_history(self, key: str, from_timestamp: float,
                     to_timestamp: float):
        if from_timestamp > to_timestamp:
            raise ValueError(
                f"empty range: {from_timestamp} > {to_timestamp}")
        versions = [
            version for version in reversed(self.versions_of(key))
            if from_timestamp <= version.timestamp <= to_timestamp
        ]
        history = []
        for version in versions:
            result = yield self.get(key, max_timestamp=version.timestamp)
            if result is not None and result[0] == version:
                history.append(result)
        return history

    @abc.abstractmethod
    def bulk_load(self, items) -> None:
        """Synchronously pre-populate the store with (key, value, version)
        triples, bypassing simulated timing.

        Experiment setup only — the paper pre-populates 2–6 M keys before
        measuring; replaying that through the timed write path would burn
        simulated hours for no measurement value."""


class BlockPins:
    """Reader/eraser coordination for flash blocks.

    A reader *pins* a block in the same simulation step as its map lookup
    (no yield in between, so the pair is atomic) and unpins once the device
    read completes. Garbage collection drains a block's pins before erasing
    it, guaranteeing a reader never observes an erased page even if GC
    remaps the page's record mid-read.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._counts: dict = {}
        self._drain_events: dict = {}

    def pin(self, block: int) -> None:
        self._counts[block] = self._counts.get(block, 0) + 1

    def unpin(self, block: int) -> None:
        count = self._counts.get(block, 0)
        if count <= 0:
            raise RuntimeError(f"unpin of unpinned block {block}")
        if count == 1:
            del self._counts[block]
            waiter = self._drain_events.pop(block, None)
            if waiter is not None:
                waiter.succeed()
        else:
            self._counts[block] = count - 1

    def pinned(self, block: int) -> int:
        return self._counts.get(block, 0)

    def drain(self, block: int):
        """Generator: wait until ``block`` has no pins."""
        while self._counts.get(block, 0) > 0:
            waiter = self._drain_events.get(block)
            if waiter is None:
                waiter = self.sim.event()
                self._drain_events[block] = waiter
            yield waiter


def retained_versions(versions_desc: List[Version],
                      watermark: float) -> List[Version]:
    """Apply the watermark retention rule of §3.1 / §4.4.

    Given versions youngest-first, keep every version newer than the
    watermark plus the single youngest version at or below it; a snapshot
    read at any timestamp >= watermark can then always be served.
    """
    kept: List[Version] = []
    for version in versions_desc:
        kept.append(version)
        if version.timestamp <= watermark:
            break
    return kept
