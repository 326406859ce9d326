"""Fan sweep cells across cores; merge results deterministically.

The parallel scheme is intentionally boring: enumerate cells in
canonical order, run each in a **spawn-context** worker process (fork
would duplicate parent state — RNGs, open files, module caches — into
workers; spawn re-imports from source, so a worker computes exactly
what a fresh serial interpreter would), then merge results **by cell
index**. Workers race only for completion order, which the merge
discards, so the merged report is byte-identical for every ``-j`` —
``tests/test_sweep.py`` pins that across ``-j 1/2/4``.

Failures surface, never hang: a cell that raises is re-raised as
:class:`SweepWorkerError` naming the cell (``sweep#index (label)``),
and a worker process dying outright (BrokenProcessPool) is wrapped the
same way.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..bench.runner import host_clock
from ..harness.experiments import ExperimentResult
from .cache import CellCache
from .cells import SweepCell, sweep_cells
from .worker import CellResult, run_cell

__all__ = [
    "SweepResult",
    "SweepWorkerError",
    "default_jobs",
    "run_sweep",
    "sweep_experiment",
]

#: Merged-report layout version.
REPORT_SCHEMA = 1


class SweepWorkerError(RuntimeError):
    """A cell failed (or its worker process died); names the cell."""


def default_jobs() -> int:
    """Default worker count: all cores but one, at least one."""
    return max(1, (os.cpu_count() or 2) - 1)


def _cell_id(cell: SweepCell) -> str:
    return f"{cell.sweep}#{cell.index} ({cell.label})"


def _ensure_child_import_path() -> None:
    """Make ``repro`` importable in spawn children via PYTHONPATH.

    Spawn workers inherit the environment but not ``sys.path``
    mutations, so a parent that found ``repro`` through a manipulated
    path (pytest, PYTHONPATH=src) must pass the package root along.
    """
    package_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    # Host-side orchestration, not simulated code: this env var only
    # controls how worker interpreters find the package, never what the
    # simulation computes.
    existing = os.environ.get("PYTHONPATH", "")  # simlint: disable=DET004
    parts = existing.split(os.pathsep) if existing else []
    if package_root not in parts:
        os.environ["PYTHONPATH"] = (  # simlint: disable=DET004
            os.pathsep.join([package_root] + parts) if parts
            else package_root)


@dataclass
class SweepResult:
    """Merged outcome of one sweep run.

    ``results`` is in canonical cell order. The *deterministic* surface
    — :meth:`report_document`, :meth:`report_json`, :meth:`render` —
    excludes all provenance (timing, worker count, cache hits), so it
    is byte-identical across ``-j`` values and cache states;
    :meth:`summary` carries the provenance.
    """

    sweep: str
    scale: str
    results: List[CellResult]
    jobs: int = 1
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    overrides: Dict[str, Any] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = len(self.results)
        return self.cache_hits / total if total else 0.0

    def report_document(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "sweep": self.sweep,
            "scale": self.scale,
            "cells": [
                {
                    "index": result.index,
                    "label": result.label,
                    "fingerprint": result.fingerprint,
                    "payload": result.payload,
                }
                for result in self.results
            ],
        }

    def report_json(self) -> str:
        return json.dumps(self.report_document(), sort_keys=True,
                          indent=1) + "\n"

    def to_experiment_result(self) -> ExperimentResult:
        """Merge cell payloads into one ExperimentResult.

        Rows concatenate in cell order; series points append per key in
        cell order — the row's axis order is the table's row order.
        """
        if not self.results:
            return ExperimentResult(
                name=f"{self.sweep} (empty sweep)", headers=[], rows=[])
        first = self.results[0].payload
        rows: List[list] = []
        series: Dict[str, tuple] = {}
        for result in self.results:
            payload = result.payload
            rows.extend(payload["rows"])
            for key, (xs, ys) in payload["series"].items():
                if key in series:
                    old_xs, old_ys = series[key]
                    series[key] = (old_xs + list(xs), old_ys + list(ys))
                else:
                    series[key] = (list(xs), list(ys))
        return ExperimentResult(
            name=first["name"], headers=list(first["headers"]),
            rows=rows, series=series, notes=first["notes"])

    def render(self) -> str:
        """Deterministic text report (merged tables + fingerprints)."""
        lines = [
            f"sweep: {self.sweep} (scale={self.scale}, "
            f"cells={len(self.results)})",
            "",
            self.to_experiment_result().render(),
            "",
            "cell fingerprints:",
        ]
        for result in self.results:
            lines.append(f"  {result.index:3d}  {result.label:<28} "
                         f"{result.fingerprint}")
        return "\n".join(lines)

    def summary(self) -> str:
        """Provenance line: timing, workers, cache accounting."""
        computed = len(self.results) - self.cache_hits
        return (f"{self.sweep}: {len(self.results)} cells in "
                f"{self.elapsed_seconds:.2f}s host "
                f"(jobs={self.jobs}, computed={computed}, "
                f"cache hits={self.cache_hits} "
                f"misses={self.cache_misses}, "
                f"hit rate={self.hit_rate:.0%})")


def _run_cells_parallel(
    todo: Sequence[SweepCell],
    jobs: int,
    progress: Optional[Callable[[str], None]],
) -> Dict[int, CellResult]:
    _ensure_child_import_path()
    fresh: Dict[int, CellResult] = {}
    executor = ProcessPoolExecutor(
        max_workers=min(jobs, len(todo)),
        mp_context=get_context("spawn"))
    try:
        futures = [(cell, executor.submit(run_cell, cell))
                   for cell in todo]
        for cell, future in futures:
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                raise SweepWorkerError(
                    f"worker process died while running "
                    f"{_cell_id(cell)}: {exc}") from exc
            except SweepWorkerError:
                raise
            except Exception as exc:
                raise SweepWorkerError(
                    f"cell {_cell_id(cell)} failed: "
                    f"{type(exc).__name__}: {exc}") from exc
            fresh[cell.index] = result
            if progress is not None:
                progress(f"[{cell.index + 1}] {_cell_id(cell)} done "
                         f"({result.host_seconds:.2f}s)")
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    return fresh


def run_sweep(
    name: str,
    scale: str = "quick",
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    refresh: bool = False,
    overrides: Optional[Dict[str, Any]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run every cell of sweep ``name``; merge in canonical order.

    ``jobs > 1`` fans uncached cells across spawn-context worker
    processes. ``cache`` (optional) short-circuits cells whose
    (config, code) key has a stored result; ``refresh`` recomputes and
    overwrites them instead. The merged report is byte-identical for
    every ``jobs`` value and cache state.
    """
    overrides = dict(overrides or {})
    start = host_clock()
    cells = list(sweep_cells(name, scale=scale, **overrides))

    merged: Dict[int, CellResult] = {}
    todo: List[SweepCell] = []
    if cache is not None and not refresh:
        for cell in cells:
            hit = cache.get(cell)
            if hit is not None:
                merged[cell.index] = hit
            else:
                todo.append(cell)
    else:
        todo = list(cells)

    cache_hits = len(merged)
    if todo:
        if jobs > 1 and len(todo) > 1:
            fresh = _run_cells_parallel(todo, jobs, progress)
        else:
            fresh = {}
            for cell in todo:
                try:
                    result = run_cell(cell)
                except Exception as exc:
                    raise SweepWorkerError(
                        f"cell {_cell_id(cell)} failed: "
                        f"{type(exc).__name__}: {exc}") from exc
                fresh[cell.index] = result
                if progress is not None:
                    progress(f"[{cell.index + 1}] {_cell_id(cell)} done "
                             f"({result.host_seconds:.2f}s)")
        if cache is not None:
            for cell in todo:
                cache.put(cell, fresh[cell.index])
        merged.update(fresh)

    results = [merged[cell.index] for cell in cells]
    return SweepResult(
        sweep=name, scale=scale, results=results, jobs=jobs,
        elapsed_seconds=host_clock() - start,
        cache_hits=cache_hits, cache_misses=len(todo),
        overrides=overrides)


def sweep_experiment(
    name: str,
    jobs: int = 1,
    scale: str = "quick",
    cache: Optional[CellCache] = None,
    refresh: bool = False,
    **overrides: Any,
) -> ExperimentResult:
    """Run table row ``name`` and merge it into an ExperimentResult.

    This is how every table/figure is produced — ``repro experiment``,
    the benchmark drivers in ``benchmarks/`` and library users all call
    it; keyword overrides replace the row's grid/shared parameters.
    """
    return run_sweep(name, scale=scale, jobs=jobs, cache=cache,
                     refresh=refresh,
                     overrides=overrides).to_experiment_result()
