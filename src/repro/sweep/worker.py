"""Run one sweep cell; return a typed, picklable result.

A cell is run by calling its table row's ``point`` function with the
cell's parameters. Every cell yields the same payload shape — a
JSON-safe dict with ``name``/``headers``/``rows``/``series``/``notes``,
i.e. a one-point :class:`~repro.harness.experiments.ExperimentResult`
flattened to plain lists — so merging is uniform across figures,
ablations, nemesis scenarios and sansim trials, and the merged report
serializes identically whether a cell was computed in-process, in a
spawn worker, or loaded from the on-disk cache.

Determinism: the payload is normalized by :func:`_jsonify` (tuples to
lists, nothing else touched — floats keep their exact values, and
``repr``/JSON of a float is the shortest round-trip form, identical in
every CPython process on a platform). The fingerprint is a SHA-256 over
the canonical JSON serialization, so equal payloads always hash equal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict

from ..bench.runner import host_clock
from .cells import SweepCell, experiment

__all__ = ["CellResult", "run_cell", "canonical_json", "payload_fingerprint"]


@dataclass(frozen=True)
class CellResult:
    """The outcome of one cell: payload + provenance.

    ``payload`` is deterministic (identical for identical cell params
    and code); ``host_seconds`` and ``cache_hit`` are provenance only
    and are excluded from merged reports and fingerprints.
    """

    sweep: str
    index: int
    label: str
    payload: Dict[str, Any]
    fingerprint: str
    host_seconds: float
    cache_hit: bool = False


def canonical_json(value: Any) -> str:
    """The one serialization fingerprints and cache keys are built on."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def payload_fingerprint(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _jsonify(value: Any) -> Any:
    """Normalize to exactly what ``json.load`` would return.

    Tuples become lists and dict keys become strings; scalars pass
    through untouched. Cached results round-trip through JSON, so fresh
    results must already be in that normal form for byte-equality.
    """
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise TypeError(
        f"cell payloads must be JSON-safe; got {type(value).__name__}: "
        f"{value!r}")


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one cell in the current process and package the result."""
    row = experiment(cell.sweep)
    start = host_clock()
    rows, series = row.point(**cell.params_dict())
    seconds = host_clock() - start
    payload = _jsonify({
        "name": row.title,
        "headers": row.headers,
        "rows": rows,
        "series": {key: [[x], [y]] for key, (x, y) in series.items()},
        "notes": row.notes,
    })
    return CellResult(
        sweep=cell.sweep, index=cell.index, label=cell.label,
        payload=payload, fingerprint=payload_fingerprint(payload),
        host_seconds=seconds, cache_hit=False)
