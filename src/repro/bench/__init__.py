"""Host-performance benchmarks for the simulation kernel.

Every figure in the reproduction is bottlenecked on host wall-clock of
the pure-Python discrete-event kernel, so this package measures — and
the CI smoke job protects — how fast the simulator itself runs:

* :mod:`repro.bench.kernel` — microbenchmarks of the kernel hot paths
  (event dispatch and allocation, timeout trampolines, RPC
  round-trips, device reads, histogram records), reported as operations
  per **host** second;
* :mod:`repro.bench.fingerprint` — schedule fingerprints that gate
  every optimisation: a kernel change may only land if the
  default-config Retwis/YCSB/figure-6 fingerprints are byte-identical
  before and after (see docs/PERFORMANCE.md);
* :mod:`repro.bench.runner` — the ``repro bench`` CLI engine: suite
  assembly, optional ``cProfile`` capture, ``BENCH_kernel.json``
  emission and baseline regression checks.

Whole-stack performance (Retwis, the KV device path; host and simulated
clocks, per-layer attribution) is measured by ``BENCHMARK.json`` and
``benchmarks/e2e/``, which import :func:`~repro.bench.runner.host_clock`
and :func:`~repro.bench.runner.host_metadata` from here.

Wall-clock reads live here *only*: simulated components must never
consult the host clock (the golden fingerprints catch one that does);
the benchmark harness is the one sanctioned exception because host
seconds are exactly what it measures.
"""

from .fingerprint import all_fingerprints, schedule_fingerprint
from .kernel import (
    bench_device_reads,
    bench_event_alloc,
    bench_event_dispatch,
    bench_rpc_roundtrips,
    bench_timeout_chain,
)
from .runner import (
    BenchResult,
    check_against_baseline,
    host_metadata,
    load_report,
    run_suite,
    write_report,
)

__all__ = [
    "BenchResult",
    "all_fingerprints",
    "bench_device_reads",
    "bench_event_alloc",
    "bench_event_dispatch",
    "bench_rpc_roundtrips",
    "bench_timeout_chain",
    "check_against_baseline",
    "host_metadata",
    "load_report",
    "run_suite",
    "schedule_fingerprint",
    "write_report",
]
