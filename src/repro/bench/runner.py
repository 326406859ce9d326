"""Benchmark suite assembly, timing, reporting, and regression checks.

A benchmark is a callable taking a scale factor (``1.0`` = full scale)
and returning a :class:`BenchResult`. The runner times nothing itself —
each benchmark brackets exactly its measured region with
:func:`host_clock` — but it owns everything around the measurement:
suite selection, optional profiling, JSON reports, and the
``--check`` regression gate CI runs against the checked-in
``BENCH_kernel.json``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BenchResult",
    "REPORT_SCHEMA",
    "check_against_baseline",
    "host_clock",
    "host_metadata",
    "load_report",
    "run_suite",
    "write_report",
]

#: Bumped when the BENCH_kernel.json layout changes incompatibly.
#: Schema 2 added the ``host`` metadata block; schema-1 reports are
#: still loadable (they simply carry no host information).
REPORT_SCHEMA = 2

#: Schemas :func:`load_report` accepts.
_SUPPORTED_SCHEMAS = (1, 2)


def host_clock() -> float:
    """Current host time in seconds; the one sanctioned wall-clock read.

    Benchmarks measure *host* performance, so they are the single place
    in the tree allowed to look at the machine's clock. Everything
    simulated keeps taking time from ``Simulator.now``.
    """
    return time.perf_counter()


@dataclass
class BenchResult:
    """One benchmark's measurement.

    ``value`` is the headline rate in ``metric`` units (always
    higher-is-better, e.g. ``events_per_s``); ``n`` is how many units
    were executed and ``seconds`` the host wall-clock they took.
    ``extra`` carries informational secondary numbers that are *not*
    regression-checked (simulated seconds covered, txn counts, ...).
    """

    name: str
    metric: str
    value: float
    n: int
    seconds: float
    extra: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        detail = ", ".join(f"{key}={value}" for key, value in
                           sorted(self.extra.items()))
        return (f"{self.name:<28} {self.value:>14,.0f} {self.metric}"
                f"  ({self.n:,} in {self.seconds:.3f}s"
                + (f"; {detail}" if detail else "") + ")")


#: Kernel microbenchmarks run in well under a second, so scheduler noise
#: can swing a single sample by 2x; running each a few times and keeping
#: the best (fresh Simulator per repeat) measures the code rather than
#: the neighbours.
_REPEATS = 3


def _collector_totals() -> Tuple[int, int]:
    """(passes, objects freed) by the cyclic collector so far, summed
    over its generations."""
    stats = gc.get_stats()
    return (sum(generation["collections"] for generation in stats),
            sum(generation["collected"] for generation in stats))


def _run_counting_collector(benchmark: Callable[[float], BenchResult],
                            scale: float) -> BenchResult:
    """Run ``benchmark`` once and record in ``extra`` what the cyclic
    collector did meanwhile: ``gc_collections`` passes that freed
    ``gc_collected`` objects. Exact counts, no clock. Kernel objects are
    meant to die by refcounting (docs/PERFORMANCE.md, "The collector"),
    so a hot path that starts feeding the collector shows here first.
    """
    # Garbage that earlier runs left behind must not be billed to this
    # one. One pass is not always enough: it closes suspended
    # generators, and what their frames held goes in the next; and a
    # first pass that frees nothing says nothing about the second.
    gc.collect()
    while gc.collect():
        pass
    passes, collected = _collector_totals()
    result = benchmark(scale)
    passes_after, collected_after = _collector_totals()
    result.extra["gc_collections"] = passes_after - passes
    result.extra["gc_collected"] = collected_after - collected
    return result


def _suite() -> List[Tuple[str, Callable[[float], BenchResult]]]:
    # Imported lazily so ``repro bench --help`` stays instant.
    from .kernel import (
        bench_device_reads,
        bench_event_alloc,
        bench_event_dispatch,
        bench_histogram_records,
        bench_rpc_roundtrips,
        bench_timeout_chain,
    )

    return [
        ("kernel/events", bench_event_dispatch),
        ("kernel/alloc", bench_event_alloc),
        ("kernel/timeouts", bench_timeout_chain),
        ("kernel/rpc", bench_rpc_roundtrips),
        ("kernel/device", bench_device_reads),
        ("kernel/histogram", bench_histogram_records),
    ]


def run_suite(
    quick: bool = False,
    only: Optional[str] = None,
    profile: bool = False,
    report: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run the benchmark suite and return its results.

    ``quick`` scales every benchmark down for CI smoke runs; ``only``
    keeps benchmarks whose name starts with the given prefix;
    ``profile`` wraps each benchmark in :mod:`cProfile` and emits the
    hottest functions through ``report`` (a line sink, default print).
    """
    emit = report if report is not None else print
    scale = 0.1 if quick else 1.0
    results: List[BenchResult] = []
    for name, benchmark in _suite():
        if only and not name.startswith(only):
            continue
        if profile:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            result = _run_counting_collector(benchmark, scale)
            profiler.disable()
            buffer = io.StringIO()
            stats = pstats.Stats(profiler, stream=buffer)
            stats.sort_stats("cumulative").print_stats(12)
            emit(f"--- profile: {name} ---")
            for line in buffer.getvalue().splitlines():
                emit(line)
        else:
            result = _run_counting_collector(benchmark, scale)
            for _ in range(_REPEATS - 1):
                repeat = _run_counting_collector(benchmark, scale)
                if repeat.value > result.value:
                    result = repeat
            result.extra["best_of"] = _REPEATS
        results.append(result)
        emit(result.render())
    return results


# -- reports ---------------------------------------------------------------


def host_metadata() -> Dict[str, Any]:
    """Where a report was measured, so cross-machine diffs are
    explainable before anyone chases a phantom regression.

    Host-side introspection only (like :func:`host_clock`): nothing
    simulated may read these.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def write_report(results: Sequence[BenchResult], path: str,
                 quick: bool = False) -> None:
    """Write ``BENCH_kernel.json``-style report to ``path``."""
    document = {
        "schema": REPORT_SCHEMA,
        "quick": quick,
        "host": host_metadata(),
        "results": [
            {
                "name": result.name,
                "metric": result.metric,
                "value": result.value,
                "n": result.n,
                "seconds": result.seconds,
                "extra": result.extra,
            }
            for result in results
        ],
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Load a report written by :func:`write_report`."""
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") not in _SUPPORTED_SCHEMAS:
        raise ValueError(
            f"unsupported bench report schema {document.get('schema')!r} "
            f"in {path} (expected one of {_SUPPORTED_SCHEMAS})")
    return document


def check_against_baseline(
    results: Sequence[BenchResult],
    baseline_path: str,
    tolerance: float = 0.30,
) -> List[str]:
    """Compare ``results`` to a checked-in baseline report.

    Returns a list of human-readable problems; empty means the run is
    within tolerance (fractional allowed slowdown) of the baseline on
    every benchmark both sides know about. Benchmarks only present on
    one side are reported too, so the baseline cannot silently rot. So
    is any benchmark the cyclic collector freed objects in: kernel
    objects must die by refcounting, whatever the speed.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    baseline = load_report(baseline_path)
    baseline_by_name = {entry["name"]: entry
                        for entry in baseline["results"]}
    problems: List[str] = []
    seen = set()
    for result in results:
        seen.add(result.name)
        collected = result.extra.get("gc_collected", 0)
        if collected:
            problems.append(
                f"{result.name}: the cyclic collector freed {collected} "
                f"objects; kernel objects must die by refcounting "
                f"(docs/PERFORMANCE.md, \"The collector\")")
        entry = baseline_by_name.get(result.name)
        if entry is None:
            problems.append(
                f"{result.name}: not in baseline {baseline_path}; "
                f"re-run `repro bench --quick --out {baseline_path}` "
                f"to record it")
            continue
        floor = entry["value"] * (1.0 - tolerance)
        if result.value < floor:
            slowdown = 1.0 - result.value / entry["value"]
            problems.append(
                f"{result.name}: {result.value:,.0f} {result.metric} is "
                f"{slowdown:.0%} below baseline {entry['value']:,.0f} "
                f"(tolerance {tolerance:.0%})")
    for name in baseline_by_name:
        if name not in seen:
            problems.append(
                f"{name}: in baseline but not produced by this run")
    return problems
