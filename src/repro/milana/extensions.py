"""The one client-side extension the paper leaves as future work that
an experiment row measures (the ``ablation-caching`` row).

:class:`CachingMilanaClient` (§4.3): "In principle, clients can choose
between aggressive caching and local validation: any transaction T that
is marked as read-write in advance may read from its cache, but then T
must validate remotely." The client keeps an inter-transaction cache of
(version, value) per key; transactions begun with
``read_write_hint=True`` satisfy reads from it with zero round trips,
and the primary's read-set validation (Algorithm 1, lines 2–8) catches
any staleness at prepare time — a stale cache costs an abort, never a
consistency violation. Validation-failed keys are evicted so the retry
refetches fresh data.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional, Tuple

from ..sim.process import Process
from ..versioning import Version
from .client import MilanaClient
from .transaction import ABORTED, ReadObservation, Transaction

__all__ = ["CachingMilanaClient"]


class CachingMilanaClient(MilanaClient):
    """MILANA with aggressive inter-transaction caching (§4.3)."""

    def __init__(self, *args, cache_capacity: int = 4096,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be >= 1, got {cache_capacity}")
        self.cache_capacity = cache_capacity
        #: key -> (Version, value), LRU-ordered.
        self._cache: "OrderedDict[str, Tuple[Version, Any]]" = \
            OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- transaction lifecycle -------------------------------------------------

    def begin(self, read_write_hint: bool = False) -> Transaction:
        txn = super().begin()
        txn.read_write_hint = read_write_hint
        return txn

    def txn_get(self, txn: Transaction, key: str) -> Process:
        return self.sim.process(self._cached_txn_get(txn, key))

    def _cached_txn_get(self, txn: Transaction, key: str):
        if key in txn.writes:
            return txn.writes[key]
        if key in txn.reads:
            return txn.reads[key].value
        if txn.read_write_hint:
            cached = self._cache_lookup(key, txn.ts_begin)
            if cached is not None:
                version, value = cached
                self.cache_hits += 1
                txn.reads[key] = ReadObservation(
                    version=version, prepared=False, value=value)
                return value
            self.cache_misses += 1
        value = yield from self._txn_get(txn, key)
        observation = txn.reads.get(key)
        if observation is not None and observation.version is not None:
            self._cache_insert(key, observation.version,
                               observation.value)
        return value

    def commit(self, txn: Transaction) -> Process:
        return self.sim.process(self._commit_with_cache(txn))

    def _commit_with_cache(self, txn: Transaction):
        if txn.read_write_hint:
            # The cache may be stale: remote validation is mandatory.
            outcome = yield from self._commit_two_phase(txn)
        else:
            outcome = yield from self._commit(txn)
        if outcome == ABORTED:
            # Conservatively drop everything the transaction read; the
            # retry refetches current versions from the primaries.
            for key in txn.reads:
                self._cache.pop(key, None)
        else:
            version = Version(txn.ts_commit, self.client_id) \
                if txn.ts_commit is not None else None
            if version is not None:
                for key, value in txn.writes.items():
                    self._cache_insert(key, version, value)
        return outcome

    # -- cache internals ----------------------------------------------------------

    def _cache_lookup(self, key: str,
                      max_timestamp: float) -> Optional[Tuple]:
        entry = self._cache.get(key)
        if entry is None:
            return None
        version, value = entry
        if version.timestamp > max_timestamp:
            # Cached data is from the future of this snapshot; a fresh
            # server read is needed.
            return None
        self._cache.move_to_end(key)
        return version, value

    def _cache_insert(self, key: str, version: Version,
                      value: Any) -> None:
        existing = self._cache.get(key)
        if existing is not None and existing[0] >= version:
            return
        self._cache[key] = (version, value)
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0
