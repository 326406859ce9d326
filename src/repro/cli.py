"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available experiments and workloads.
``experiment <name>``
    Regenerate one of the paper's tables/figures (``table1``,
    ``figure1``, ``figure6`` ... ``figure9``) or an ablation, at quick or
    full scale, printing the same rows/series the paper reports. Every
    name is a row of the experiment table (``repro.harness.EXPERIMENTS``),
    run serially through the sweep runner.
``retwis``
    Run the Retwis benchmark on a configurable cluster and print
    throughput / abort rate / latency percentiles.
``ycsb``
    Run a YCSB workload (A–F) on a configurable cluster.
``analyze``
    Run the simlint determinism/protocol-hygiene static analyzer
    (see ``repro.analysis``), e.g.
    ``python -m repro analyze src/repro --format json``. It is the
    analyzer's one entry point.
``wire``
    Print the message catalogue rendered from the typed wire-protocol
    registry (PROTOCOL.md carries it verbatim). ``RpcNode`` checks
    registrations and payloads against the registry at run time.
``audit``
    Run audit cells (``repro.harness.nemesis``): a fault scenario under
    a live workload, same-time ties in production order (trial 0) or
    drawn at random (later trials), then heal and audit. Exits 1 if an
    audit fails; a failing cell prints its ``--replay`` string.
``sweep``
    Run an experiment sweep (figures, ablations, audit cells) across
    spawn-context worker processes with a content-addressed cell cache
    (see ``repro.sweep``); the merged report is byte-identical for every
    ``-j``, and exits 1 if a cell fails its row's verdict.
``bench``
    Measure host-side kernel performance (the ``kernel/*`` rows:
    events, alloc, timeouts, rpc, device and histogram), optionally
    under cProfile, write ``BENCH_kernel.json``, and check for
    regressions against a checked-in baseline (see
    docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from .analysis import cli as analysis_cli
from .clocks.skew import CLOCK_PRESETS
from .harness import EXPERIMENTS, ClusterConfig, run_retwis_on_cluster
from .harness.cluster import BACKEND_KINDS, Cluster
from .harness.metrics import merged_latency_histogram
from .workloads import YCSB_WORKLOADS, YcsbInstance

__all__ = ["main"]


def _build_parser() -> Tuple[argparse.ArgumentParser,
                             Dict[str, argparse.ArgumentParser]]:
    """The ``repro`` parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Enabling Lightweight Transactions "
                     "with Precision Time' (ASPLOS 2017)"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and workloads")

    exp = sub.add_parser("experiment",
                         help="regenerate a paper table/figure")
    exp.add_argument("name", choices=[row.name for row in EXPERIMENTS])
    exp.add_argument("--scale", choices=("quick", "full"),
                     default="quick")
    exp.add_argument("--out", help="also write the rendering to a file")

    def add_cluster_arguments(command):
        command.add_argument("--backend", choices=BACKEND_KINDS,
                             default="mftl")
        command.add_argument("--clock", default="ptp-sw",
                             choices=tuple(CLOCK_PRESETS))
        command.add_argument("--shards", type=int, default=1)
        command.add_argument("--replicas", type=int, default=3)
        command.add_argument("--clients", type=int, default=8)
        command.add_argument("--keys", type=int, default=2000)
        command.add_argument("--duration", type=float, default=0.2,
                             help="measured seconds of simulated time")
        command.add_argument("--seed", type=int, default=42)

    retwis = sub.add_parser("retwis", help="run the Retwis benchmark")
    add_cluster_arguments(retwis)
    retwis.add_argument("--alpha", type=float, default=0.6,
                        help="Zipf contention parameter")
    retwis.add_argument("--no-local-validation", action="store_true")

    ycsb = sub.add_parser("ycsb", help="run a YCSB workload")
    add_cluster_arguments(ycsb)
    ycsb.add_argument("--workload", choices=sorted(YCSB_WORKLOADS),
                      default="B")
    ycsb.add_argument("--alpha", type=float, default=0.99)

    analysis_cli.add_arguments(sub.add_parser(
        "analyze", help="run the simlint static analyzer (repro.analysis)"))

    sub.add_parser(
        "wire", help="print the wire-protocol message catalogue")

    from .harness.nemesis import SCENARIOS, WORKLOADS, AuditSpec
    default = AuditSpec("asymmetric-partition")
    audit = sub.add_parser(
        "audit",
        help="run audit cells: a fault scenario and a schedule under a "
             "workload, healed, then audited")
    audit.add_argument("--scenario", default=default.scenario,
                       choices=["none"] + sorted(row.name
                                                 for row in SCENARIOS))
    audit.add_argument("--workload", default=default.workload,
                       choices=[row.name for row in WORKLOADS])
    audit.add_argument("--backend", choices=BACKEND_KINDS,
                       default=default.backend)
    audit.add_argument("--clock", choices=tuple(CLOCK_PRESETS),
                       default=default.clock)
    audit.add_argument("--seed", type=int, default=default.seed,
                       help="cluster seed (unless the workload pins "
                            "it) and tie-break seed")
    audit.add_argument("--trials", type=int, default=1,
                       help="run trials 0..N-1: trial 0 in production "
                            "order, later ones with random tie-breaks")
    audit.add_argument("--replay", metavar="SPEC",
                       help="rerun exactly one cell from its "
                            "scenario:workload:backend:clock:policy:"
                            "trial:seed string")

    sweep = sub.add_parser(
        "sweep",
        help="run an experiment sweep across worker processes with "
             "cell caching (deterministic: merged reports are "
             "byte-identical for every -j)")
    sweep.add_argument("name", nargs="?", default=None,
                       help="sweep to run (see --list)")
    sweep.add_argument("--list", action="store_true", dest="list_sweeps",
                       help="list available sweeps and exit")
    sweep.add_argument("--scale", choices=("quick", "full"),
                       default="quick")
    sweep.add_argument("-j", "--jobs", type=int, default=None,
                       help="worker processes (default: cores - 1)")
    sweep.add_argument("--out", default=None, metavar="FILE",
                       help="write the merged JSON report to FILE")
    sweep.add_argument("--no-cache", action="store_true",
                       help="do not read or write the cell cache")
    sweep.add_argument("--refresh", action="store_true",
                       help="recompute every cell, overwriting cached "
                            "entries")
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cell cache directory (default: "
                            "benchmarks/results/cache)")
    sweep.add_argument("--min-hit-rate", type=float, default=None,
                       metavar="FRACTION",
                       help="fail (exit 1) if the cache hit rate falls "
                            "below FRACTION (used by CI sweep-smoke)")

    bench = sub.add_parser(
        "bench", help="measure kernel performance; gate regressions")
    bench.add_argument("--quick", action="store_true",
                       help="CI smoke scale (~10x smaller runs)")
    bench.add_argument("--only", default=None, metavar="PREFIX",
                       help="run only benchmarks whose name starts "
                            "with PREFIX (e.g. kernel/)")
    bench.add_argument("--profile", action="store_true",
                       help="run each benchmark under cProfile and "
                            "print the hottest functions")
    bench.add_argument("--out", default=None, metavar="FILE",
                       help="write a BENCH_kernel.json report to FILE")
    bench.add_argument("--check", default=None, metavar="BASELINE",
                       help="fail (exit 1) on regression vs a "
                            "checked-in baseline report")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed fractional slowdown for --check "
                            "(default 0.30)")
    bench.add_argument("--fingerprints", action="store_true",
                       help="also print the schedule fingerprints that "
                            "gate kernel optimisations")
    return parser, sub.choices


def _command_list(_args) -> int:
    print("experiments:")
    for row in EXPERIMENTS:
        print(f"  {row.name}")
    print("workloads:")
    print("  retwis (Table 2 mix; --alpha sets contention)")
    for name in sorted(YCSB_WORKLOADS):
        mix = ", ".join(f"{op} {weight:.0f}%"
                        for op, weight in YCSB_WORKLOADS[name])
        print(f"  ycsb {name}: {mix}")
    return 0


def _command_experiment(args) -> int:
    from .sweep import sweep_experiment

    text = sweep_experiment(args.name, scale=args.scale).render()
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"\n[written to {args.out}]")
    return 0


def _cluster_config(args) -> ClusterConfig:
    return ClusterConfig(
        num_shards=args.shards,
        replicas_per_shard=args.replicas,
        num_clients=args.clients,
        backend=args.backend,
        clock_preset=args.clock,
        seed=args.seed,
        populate_keys=args.keys,
        local_validation=not getattr(args, "no_local_validation", False),
    )


def _print_run_summary(result) -> None:
    metrics = result.metrics
    summary = result.latency_histogram.summary()
    print(f"committed txns : {metrics.committed}")
    print(f"aborted txns   : {metrics.aborted} "
          f"(abort rate {metrics.abort_rate:.3f})")
    print(f"throughput     : {metrics.throughput:,.0f} txn/s")
    print(f"latency mean   : {metrics.mean_latency * 1e3:.3f} ms")
    print(f"latency p50    : {summary['p50'] * 1e3:.3f} ms")
    print(f"latency p95    : {summary['p95'] * 1e3:.3f} ms")
    print(f"latency p99    : {summary['p99'] * 1e3:.3f} ms")
    if metrics.network_bytes:
        print(f"wire traffic   : {metrics.network_bytes:,} bytes in "
              f"{metrics.messages_sent:,} messages "
              f"({metrics.network_bandwidth_used / 1e6:.2f} MB/s)")
    bytes_by_edge = result.cluster.network.stats.bytes_by_edge
    if bytes_by_edge:
        top = sorted(bytes_by_edge.items(), key=lambda kv: -kv[1])[:3]
        print("busiest edges  : " + "; ".join(
            f"{src}->{dst} {count:,} B" for (src, dst), count in top))
    reasons: Dict[str, int] = {}
    for client in result.cluster.clients:
        for reason, count in client.stats.abort_reasons.items():
            category = _abort_category(reason)
            reasons[category] = reasons.get(category, 0) + count
    if reasons:
        top = sorted(reasons.items(), key=lambda kv: -kv[1])[:3]
        print("abort reasons  : " + "; ".join(
            f"{count}x {category}" for category, count in top))


def _abort_category(reason: str) -> str:
    """Collapse per-key abort reasons into reportable categories."""
    if reason.startswith("local-validation"):
        return "local-validation conflict"
    if "changed" in reason:
        return "read-set changed"
    if "prepared version" in reason:
        return "prepared-version conflict"
    if "read at" in reason or "committed" in reason:
        return "write-timestamp conflict"
    if reason.startswith("prepare failed"):
        return "prepare RPC failed"
    if "snapshot" in reason:
        return "snapshot miss"
    return reason[:40]


def _command_retwis(args) -> int:
    result = run_retwis_on_cluster(
        _cluster_config(args), alpha=args.alpha,
        duration=args.duration, warmup=args.duration / 4)
    print(f"Retwis on {args.backend} x {args.shards} shard(s) x "
          f"{args.replicas} replica(s), {args.clients} clients, "
          f"clock={args.clock}, alpha={args.alpha}")
    _print_run_summary(result)
    return 0


def _command_ycsb(args) -> int:
    cluster = Cluster(_cluster_config(args))
    instances = [
        YcsbInstance(cluster.sim, client, cluster.populated_keys,
                     cluster.rng.substream(f"ycsb{client.client_id}"),
                     workload=args.workload, alpha=args.alpha)
        for client in cluster.clients
    ]
    procs = [instance.run(args.duration) for instance in instances]
    for proc in procs:
        cluster.sim.run_until_event(proc)
    operations = sum(i.stats.operations for i in instances)
    committed = sum(i.stats.committed for i in instances)
    aborted = sum(i.stats.aborted for i in instances)
    decided = committed + aborted
    histogram = merged_latency_histogram(cluster.clients)
    summary = histogram.summary()
    print(f"YCSB-{args.workload} on {args.backend}, {args.clients} "
          f"clients, alpha={args.alpha}")
    print(f"operations     : {operations}")
    print(f"throughput     : {operations / args.duration:,.0f} ops/s")
    print(f"abort rate     : {aborted / decided if decided else 0:.3f}")
    print(f"latency p50    : {summary['p50'] * 1e3:.3f} ms")
    print(f"latency p99    : {summary['p99'] * 1e3:.3f} ms")
    return 0


def _command_audit(args, parser) -> int:
    from .harness.nemesis import AuditSpec, default_policy, run_spec

    if args.replay is not None:
        if any(getattr(args, name) != parser.get_default(name)
               for name in ("scenario", "workload", "backend", "clock",
                            "seed", "trials")):
            parser.error("--replay names the whole cell; give it alone")
        try:
            specs = [AuditSpec.parse(args.replay)]
        except ValueError as exc:
            parser.error(str(exc))
    else:
        if args.trials < 1:
            parser.error("--trials must be at least 1")
        specs = [AuditSpec(args.scenario, args.workload, args.backend,
                           args.clock, default_policy(trial), trial,
                           args.seed)
                 for trial in range(args.trials)]
    failing = 0
    for spec in specs:
        result = run_spec(spec)
        failing += not result.passed
        if len(specs) > 1:
            print(f"{spec.render():48s} "
                  f"{'PASS' if result.passed else 'FAIL'}  "
                  f"committed={result.audit.committed_txns}")
        if len(specs) == 1 or not result.passed:
            print(result.summary())
    print(f"audit: {len(specs)} cell(s), {failing} failing the audit",
          file=sys.stderr)
    return 1 if failing else 0


def _command_sweep(args) -> int:
    from .sweep import (
        CellCache,
        SweepWorkerError,
        default_jobs,
        run_sweep,
        sweep_names,
    )
    from .sweep.cache import DEFAULT_CACHE_DIR

    if args.list_sweeps or args.name is None:
        print("sweeps:")
        for name in sweep_names():
            print(f"  {name}")
        return 0 if args.list_sweeps else 2
    jobs = args.jobs if args.jobs is not None else default_jobs()
    cache = None
    if not args.no_cache:
        cache = CellCache(args.cache_dir or DEFAULT_CACHE_DIR)
    try:
        result = run_sweep(
            args.name, scale=args.scale, jobs=jobs, cache=cache,
            refresh=args.refresh,
            progress=lambda line: print(line, file=sys.stderr))
    except SweepWorkerError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Unknown sweep name / bad override: usage error, not a crash.
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    print(f"\n[{result.summary()}]", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(result.report_json())
        print(f"[merged report written to {args.out}]", file=sys.stderr)
    failures = result.failures()
    for label in failures:
        print(f"sweep: {args.name}: cell {label} fails its verdict",
              file=sys.stderr)
    if (args.min_hit_rate is not None
            and result.hit_rate < args.min_hit_rate):
        print(f"sweep: cache hit rate {result.hit_rate:.0%} below "
              f"required {args.min_hit_rate:.0%}", file=sys.stderr)
        return 1
    return 1 if failures else 0


def _command_bench(args) -> int:
    from .bench import (
        all_fingerprints,
        check_against_baseline,
        run_suite,
        write_report,
    )

    results = run_suite(quick=args.quick, only=args.only,
                        profile=args.profile)
    if args.fingerprints:
        print("schedule fingerprints (must not change with kernel "
              "optimisations):")
        for kind, digest in sorted(all_fingerprints().items()):
            print(f"  {kind:<8} {digest}")
    if args.out:
        write_report(results, args.out, quick=args.quick)
        print(f"[report written to {args.out}]")
    if args.check:
        problems = check_against_baseline(
            results, args.check, tolerance=args.tolerance)
        if args.only:
            # A filtered run legitimately misses the baseline entries
            # outside its prefix; every problem starts with its name.
            problems = [problem for problem in problems
                        if problem.startswith(args.only)
                        or "not produced by this run" not in problem]
        if problems:
            for problem in problems:
                print(f"bench-check: {problem}")
            return 1
        print(f"bench-check: OK ({len(results)} benchmarks within "
              f"tolerance of {args.check})")
    return 0


def _command_wire(_args) -> int:
    from .wire.registry import render_catalogue

    print(render_catalogue())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser, commands = _build_parser()
    args, extras = parser.parse_known_args(argv)
    command = commands[args.command]
    if extras:
        # Reported by the command's own parser, so the usage line and
        # the error name ``repro <command>``.
        command.error(f"unrecognized arguments: {' '.join(extras)}")
    handlers: Dict[str, Callable] = {
        "list": _command_list,
        "experiment": _command_experiment,
        "retwis": _command_retwis,
        "ycsb": _command_ycsb,
        "analyze": lambda args: analysis_cli.run(args, command),
        "wire": _command_wire,
        "audit": lambda args: _command_audit(args, command),
        "sweep": _command_sweep,
        "bench": _command_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
