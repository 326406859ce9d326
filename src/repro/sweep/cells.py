"""The sweep table and cell enumeration.

A *cell* is one independently runnable grid point of a row of the
experiment table (:class:`~repro.harness.experiments.Experiment`). The
decomposition leans on a property every row's ``point`` function has:
each grid point builds a fresh ``Simulator`` and derives its RNG from a
fixed seed (or a per-point substream that draws nothing from a parent),
so a point run alone, in any order, in any process, produces
bit-identical results.

:data:`TABLE` is the paper experiments and ablations declared in
:mod:`repro.harness` plus the two sweep-only rows below: ``audit``,
whose one axis is audit-cell replay strings (its named grids are the
tuples below), and the hidden ``selftest``. Cells are
enumerated generically, in **canonical order** — the row's axes,
outermost first — so results merged in cell order always give the same
table. Grid parameters may be overridden per invocation (the benchmark
drivers in ``benchmarks/`` do).

Parallelism hygiene (simlint rule PAR001): this module keeps **no**
module-level mutable state — the table is a tuple of frozen rows —
because every module imported by a sweep worker is re-imported in a
fresh spawn-context interpreter and module state would silently diverge
between parent and workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, Iterable, Sequence, Tuple

from ..harness import EXPERIMENTS, Experiment
from ..harness.experiments import Point
from ..harness.nemesis import SCENARIOS, AuditSpec, default_policy, run_spec

__all__ = [
    "CI_GRID",
    "EXPLORER_GRID",
    "NEMESIS_GRID",
    "TABLE",
    "SweepCell",
    "experiment",
    "spec_grid",
    "sweep_cells",
    "sweep_names",
]


@dataclass(frozen=True)
class SweepCell:
    """One independently runnable grid point of a sweep.

    ``params`` is a tuple of ``(name, value)`` pairs (scalars only) so
    the cell is hashable, picklable and JSON-stable — the cache key is
    derived from it; they are the keyword arguments of the row's
    ``point`` function. ``index`` is the cell's position in canonical
    order; results are merged sorted by ``index``.
    """

    sweep: str
    index: int
    label: str
    params: Tuple[Tuple[str, Any], ...]

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)


# ---------------------------------------------------------------------------
# Sweep-only rows: grids that are not paper tables/figures.
# ---------------------------------------------------------------------------

def spec_grid(scenarios: Iterable[str],
              workloads: Iterable[str] = ("retwis",),
              backends: Iterable[str] = ("dram",),
              clocks: Iterable[str] = ("perfect",), trials: int = 1,
              seeds: Iterable[int] = (42,)) -> Tuple[str, ...]:
    """Replay strings of every combination, trial 0 fifo and later
    trials random, outermost axis first."""
    return tuple(
        AuditSpec(scenario, workload, backend, clock,
                  default_policy(trial), trial, seed).render()
        for scenario, workload, backend, clock, seed, trial in product(
            scenarios, workloads, backends, clocks, seeds, range(trials)))


#: Every scenario on the default deployment: ``repro audit --scenario
#: NAME`` for each row.
NEMESIS_GRID = spec_grid(sorted(row.name for row in SCENARIOS))
#: 25 fault-free schedules of each smoke workload.
EXPLORER_GRID = spec_grid(("none",), ("retwis-smoke", "ycsb-smoke"),
                          clocks=("ptp-sw",), trials=25, seeds=(1,))
#: What CI runs: partitions, chaos, crashes, duplicates and the master
#: cut-off on the default deployment, then the explorer grid.
CI_GRID = spec_grid((
    "asymmetric-partition", "chaos", "chaos-amnesia", "combo",
    "crash-during-recovery", "crash-restart", "dup-storm",
    "isolate-master", "rolling-restart")) + EXPLORER_GRID


def _audit_point(spec: str) -> Point:
    result = run_spec(AuditSpec.parse(spec))
    metrics = result.metrics
    audit = result.audit
    return [[spec, metrics.committed, metrics.aborted, metrics.abort_rate,
             metrics.throughput, audit.committed_txns, audit.passed,
             result.records_synced]], {}


def _selftest_point(value, fail_at, seed) -> Point:
    if value == fail_at:
        raise ValueError("selftest cell failure injected via fail_at")
    return ([[value, value * value, value * 0.1 + seed]],
            {"square": (value, value * value)})


TABLE: Tuple[Experiment, ...] = EXPERIMENTS + (
    Experiment(
        name="audit",
        title="Audit cells",
        headers=("cell", "committed", "aborted", "abort rate", "txn/s",
                 "audited txns", "audit passed", "records synced"),
        axes=(("specs", "spec"),),
        full=dict(specs=NEMESIS_GRID + EXPLORER_GRID),
        quick=dict(specs=CI_GRID),
        point=_audit_point,
        notes="Every cell must pass its audit; a cell's label is its "
              "replay string (repro audit --replay CELL).",
        verdict="audit passed",
    ),
    # Used by the test suite: cheap deterministic cells with an optional
    # injected failure at the cell whose value is ``fail_at``.
    Experiment(
        name="selftest",
        title="Sweep selftest",
        headers=("value", "square", "scaled"),
        axes=(("values", "value"),),
        full=dict(values=tuple(range(6)), fail_at=-1, seed=1),
        quick=dict(values=tuple(range(4))),
        point=_selftest_point,
        hidden=True,
    ),
)


def experiment(name: str) -> Experiment:
    """The table row called ``name``."""
    for row in TABLE:
        if row.name == name:
            return row
    raise ValueError(
        f"unknown sweep {name!r}; choose from "
        f"{sorted(row.name for row in TABLE)}")


def sweep_names(include_hidden: bool = False) -> Tuple[str, ...]:
    """Names accepted by :func:`sweep_cells`, in table order."""
    return tuple(row.name for row in TABLE
                 if include_hidden or not row.hidden)


def sweep_cells(name: str, scale: str = "quick",
                **overrides: Any) -> Sequence[SweepCell]:
    """Enumerate the cells of sweep ``name`` in canonical order.

    ``scale`` selects the row's full or quick (CI) parameter values;
    keyword overrides replace individual grid/shared parameters (unknown
    keys raise, so typos cannot silently shrink a sweep).
    """
    row = experiment(name)
    cells = []
    for params in row.points(scale, **overrides):
        axis_values = [(param, params[param]) for _, param in row.axes]
        label = "/".join(
            value if isinstance(value, str) else f"{param}={value}"
            for param, value in axis_values)
        cells.append(SweepCell(sweep=name, index=len(cells), label=label,
                               params=tuple(sorted(params.items()))))
    return cells
