"""Algorithm 1: the MILANA primary validation algorithm.

Per-key state kept in DRAM on each primary (§4.1):

* ``latest_read`` — the largest snapshot timestamp any get has used;
* ``prepared`` — the (txn_id, ts_commit) of a prepared-but-undecided
  transaction writing this key, or None;
* ``latest_committed`` — the version stamp of the youngest committed
  write.

None of this is persisted; recovery rebuilds ``prepared`` and
``latest_committed`` from replicas and the store, and covers the missing
``latest_read`` with a lease wait (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterable, Optional, Tuple

from ..versioning import Version
from .transaction import TransactionRecord

__all__ = ["KeyState", "KeyStateTable", "validate", "ValidationResult"]


@dataclass
class KeyState:
    """Validation-relevant state of one key on a primary."""

    latest_read: float = float("-inf")
    prepared: Optional[Tuple[str, float]] = None  # (txn_id, ts_commit)
    latest_committed: Optional[Version] = None

    def prepared_at_or_before(self, timestamp: float) -> bool:
        return self.prepared is not None and self.prepared[1] <= timestamp


class KeyStateTable:
    """All per-key validation state for one shard primary.

    Algorithm 1's accesses report themselves to ``sim.tracer`` (the race
    sanitizer, :mod:`repro.sansim`) as the location
    ``("keystate", node, key)``: ``read`` and ``observe_read`` are
    reads, ``mark_prepared`` and ``clear_prepared`` are writes.
    ``mark_committed`` is not reported on its own (a commit's
    ``clear_prepared`` reports the key's write), nor are ``get`` and
    ``peek`` (hydration, validation's checks) or ``restore_prepared``
    (recovery's rebuild).
    """

    def __init__(self, sim: Any, node: str) -> None:
        self._sim = sim
        self._node = node
        self._states: Dict[str, KeyState] = {}

    def get(self, key: str) -> KeyState:
        state = self._states.get(key)
        if state is None:
            state = KeyState()
            self._states[key] = state
        return state

    def peek(self, key: str) -> Optional[KeyState]:
        return self._states.get(key)

    def read(self, keys: Iterable[str]) -> None:
        """A section's reads of several keys' states, in order."""
        tracer = self._sim.tracer
        if tracer is not None:
            for key in keys:
                tracer.on_read(("keystate", self._node, key))

    def observe_read(self, key: str, timestamp: float) -> KeyState:
        state = self.get(key)
        if timestamp > state.latest_read:
            state.latest_read = timestamp
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.on_read(("keystate", self._node, key))
        return state

    def mark_prepared(self, key: str, txn_id: str,
                      ts_commit: float) -> None:
        self.get(key).prepared = (txn_id, ts_commit)
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.on_write(("keystate", self._node, key))

    def restore_prepared(self, record: TransactionRecord) -> None:
        """Mark every key ``record`` writes as prepared by it."""
        for key, _value in record.writes:
            self.get(key).prepared = (record.txn_id, record.ts_commit)

    def clear_prepared(self, key: str, txn_id: str) -> None:
        state = self.get(key)
        if state.prepared is not None and state.prepared[0] == txn_id:
            state.prepared = None
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.on_write(("keystate", self._node, key))

    def mark_committed(self, key: str, version: Version) -> None:
        state = self.get(key)
        if (state.latest_committed is None
                or version > state.latest_committed):
            state.latest_committed = version


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str = ""


def validate(record: TransactionRecord,
             table: KeyStateTable) -> ValidationResult:
    """Algorithm 1, verbatim.

    Read-set checks (lines 2–8): every key read must have no prepared
    version and must still be at the exact version the client observed.

    Write-set checks (lines 9–18): no prepared version, no read newer
    than the new commit timestamp, no committed version at or above it.

    The verdict depends on the state of every key the record reads or
    writes, so each is read once up front (``table.read``): the checks
    below stop at the first failure.
    """
    table.read(key for key, _ in chain(record.reads, record.writes))
    for key, observed in record.reads:
        state = table.peek(key)
        latest_committed = state.latest_committed if state else None
        prepared = state.prepared if state else None
        if prepared is not None:
            return ValidationResult(
                False, f"read key {key!r} has a prepared version")
        observed_version = Version(*observed) if observed is not None \
            else None
        if latest_committed != observed_version:
            return ValidationResult(
                False,
                f"read key {key!r} changed: observed {observed_version}, "
                f"now {latest_committed}")

    new_version = record.commit_version_of
    for key, _value in record.writes:
        state = table.peek(key)
        if state is None:
            continue
        if state.prepared is not None:
            return ValidationResult(
                False, f"write key {key!r} has a prepared version")
        if state.latest_read >= new_version.timestamp:
            return ValidationResult(
                False,
                f"write key {key!r} read at {state.latest_read} >= "
                f"commit ts {new_version.timestamp}")
        if (state.latest_committed is not None
                and state.latest_committed >= new_version):
            return ValidationResult(
                False,
                f"write key {key!r} committed {state.latest_committed} >= "
                f"new version {new_version}")
    return ValidationResult(True)
