"""The sweep table and cell enumeration.

A *cell* is one independently runnable grid point of a row of the
experiment table (:class:`~repro.harness.experiments.Experiment`). The
decomposition leans on a property every row's ``point`` function has:
each grid point builds a fresh ``Simulator`` and derives its RNG from a
fixed seed (or a per-point substream that draws nothing from a parent),
so a point run alone, in any order, in any process, produces
bit-identical results.

:data:`TABLE` is the paper experiments and ablations declared in
:mod:`repro.harness` plus the three sweep-only grids below (nemesis
scenarios, audited sansim trials, the hidden ``selftest``). Cells are
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
from typing import Any, Dict, Sequence, Tuple

from ..harness import EXPERIMENTS, Experiment
from ..harness.experiments import Point
from ..harness.nemesis import SCENARIOS, run_nemesis

__all__ = ["TABLE", "SweepCell", "experiment", "sweep_cells", "sweep_names"]


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

def _nemesis_point(scenario, workload, duration, fault_start,
                   fault_duration, alpha) -> Point:
    result = run_nemesis(
        scenario, workload=workload, duration=duration,
        fault_start=fault_start, fault_duration=fault_duration, alpha=alpha)
    metrics = result.metrics
    return [[scenario, metrics.committed, metrics.aborted,
             metrics.abort_rate, metrics.throughput,
             result.passed, result.records_synced]], {}


def _sansim_point(workload, trial, seed) -> Point:
    # Deferred: only sansim cells pay for importing the explorer.
    from ..sansim.explorer import TrialSpec, default_policy, run_trial

    spec = TrialSpec(workload=workload, trial=trial,
                     policy=default_policy(trial), seed=seed)
    audit = run_trial(spec).audit
    return [[spec.workload, spec.trial, spec.policy, audit.passed,
             audit.committed_txns]], {}


def _selftest_point(value, fail_at, seed) -> Point:
    if value == fail_at:
        raise ValueError("selftest cell failure injected via fail_at")
    return ([[value, value * value, value * 0.1 + seed]],
            {"square": (value, value * value)})


TABLE: Tuple[Experiment, ...] = EXPERIMENTS + (
    Experiment(
        name="nemesis",
        title="Nemesis scenario sweep",
        headers=("scenario", "committed", "aborted", "abort rate",
                 "txn/s", "audit passed", "records synced"),
        axes=(("scenarios", "scenario"),),
        full=dict(scenarios=tuple(sorted(row.name for row in SCENARIOS)),
                  workload="retwis",
                  duration=0.3, fault_start=0.05, fault_duration=0.15,
                  alpha=0.8),
        quick=dict(scenarios=("partition", "crash-restart", "clock-storm"),
                   duration=0.2, fault_duration=0.1),
        point=_nemesis_point,
        notes="Every scenario must pass its post-heal audit.",
    ),
    Experiment(
        name="sansim",
        title="Sansim trial sweep",
        headers=("workload", "trial", "policy", "audit passed",
                 "committed"),
        axes=(("workloads", "workload"), ("trials", "trial")),
        full=dict(workloads=("retwis", "ycsb"),
                  trials=tuple(range(8)), seed=0),
        quick=dict(trials=tuple(range(3))),
        point=_sansim_point,
        notes="Every trial must pass its history audit.",
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
