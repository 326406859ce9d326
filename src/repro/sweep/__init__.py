"""Deterministic parallel experiment sweeps over the experiment table.

Every table, figure, ablation and the audit-cell grid is one row of a
single table (:data:`TABLE`: the paper rows live in
:mod:`repro.harness.experiments` / :mod:`repro.harness.ablations`, the
sweep-only rows in :mod:`repro.sweep.cells`). A row declares its ordered
axes, its full-scale parameters with the quick-scale differences, and a
``point`` function that runs one grid point on a fresh
:class:`~repro.sim.core.Simulator` and a fresh seeded RNG — so grid
points (*cells*) share no state and can run in any order, or in
different processes, without changing a single bit of any result.

This package is the one loop that walks those grids:

* :mod:`repro.sweep.cells` enumerates the cells of any row generically,
  in canonical (axis) order;
* :mod:`repro.sweep.worker` runs one cell through its row's ``point``
  and returns a typed, picklable :class:`CellResult` (an
  ExperimentResult-shaped payload plus a SHA-256 fingerprint of it);
* :mod:`repro.sweep.cache` is a content-addressed on-disk cell cache
  keyed by (cell config, code fingerprint), so re-running a sweep only
  recomputes cells whose inputs actually changed;
* :mod:`repro.sweep.runner` runs the cells serially (``jobs=1``) or fans
  them across cores with a spawn-context ``ProcessPoolExecutor``, and
  merges results in canonical cell order, so the merged report is
  byte-identical for every ``jobs``.

To add an experiment, add one row (and its ``point`` function) to the
table; ``repro list``, ``repro experiment``, ``repro sweep``, caching
and parallel fan-out need no further edits.

Surfaced on the CLI as ``repro experiment`` (serial, rendered table) and
``repro sweep`` (parallel, cached; see docs/PERFORMANCE.md).
"""

from .cache import CellCache, code_fingerprint
from .cells import TABLE, SweepCell, sweep_cells, sweep_names
from .runner import (
    SweepResult,
    SweepWorkerError,
    default_jobs,
    run_sweep,
    sweep_experiment,
)
from .worker import CellResult, run_cell

__all__ = [
    "CellCache",
    "CellResult",
    "SweepCell",
    "SweepResult",
    "SweepWorkerError",
    "TABLE",
    "code_fingerprint",
    "default_jobs",
    "run_cell",
    "run_sweep",
    "sweep_cells",
    "sweep_experiment",
    "sweep_names",
]
