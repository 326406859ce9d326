"""sansim command line: ``repro sansim [workloads ...]``.

Runs the schedule explorer over the named workloads and audits every
trial with :func:`~repro.harness.audit.run_audit`. Exit codes: 0 when
every trial's audit passes, 1 when any fails, 2 on a usage error.

``--replay workload:trial:policy:seed`` re-runs exactly one trial (the
spec every failing trial prints) instead of exploring; determinism of
the kernel plus the seeded policies makes it fail the same way.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from ..analysis.baseline import emit
from .explorer import (ExplorationResult, TrialResult, explore,
                       parse_replay_spec, replay_spec)
from .policies import POLICY_NAMES
from .workloads import DEFAULT_WORKLOADS, WORKLOADS

__all__ = ["add_arguments", "run"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Fill in the ``repro sansim`` subparser."""
    parser.description = ("sansim: schedule exploration of the "
                          "SEMEL/MILANA simulation, every trial checked "
                          "by the history audit")
    parser.add_argument("workloads", nargs="*",
                        default=list(DEFAULT_WORKLOADS),
                        help="workloads to explore "
                             f"(default: {' '.join(DEFAULT_WORKLOADS)}; "
                             f"see --list-workloads)")
    parser.add_argument("--trials", type=int, default=25,
                        help="schedule trials per workload (default: 25)")
    parser.add_argument("--seed", type=int, default=0,
                        help="exploration seed (default: 0)")
    parser.add_argument("--policy", choices=POLICY_NAMES,
                        help="force one tie-break policy for every trial "
                             "(default: trial 0 fifo, then random)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="output_format")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--replay", metavar="SPEC",
                        help="re-run one trial from its "
                             "workload:trial:policy:seed spec")
    parser.add_argument("--list-workloads", action="store_true",
                        help="print the workload catalogue and exit")


def _list_workloads() -> int:
    for name in WORKLOADS:
        default = " (default)" if name in DEFAULT_WORKLOADS else ""
        print(f"{name}{default}")
    return 0


def _trial_json(result: TrialResult) -> Dict[str, Any]:
    audit = result.audit
    return {
        "spec": result.spec.render(),
        "passed": audit.passed,
        "committed_txns": audit.committed_txns,
        "checked_writes": audit.checked_writes,
        "serializable": audit.serializable,
        "witness": None if audit.witness is None else list(audit.witness),
        "lost_writes": len(audit.lost_writes),
        "stuck_prepared": len(audit.stuck_prepared),
        "acked_aborted": len(audit.acked_aborted),
        "divergent": len(audit.divergent),
        "handler_errors": audit.handler_errors,
    }


def _render_json(results: List[ExplorationResult]) -> str:
    payload = {
        "version": 2,
        "tool": "sansim",
        "runs": [{"workload": run.workload, "seed": run.seed,
                  "trials": [_trial_json(r) for r in run.results]}
                 for run in results],
        "failing": [r.spec.render() for run in results
                    for r in run.failures],
    }
    return json.dumps(payload, indent=2)


def _render_text(results: List[ExplorationResult]) -> str:
    lines: List[str] = []
    for run in results:
        for result in run.results:
            audit = result.audit
            lines.append(
                f"{result.spec.render():28s} "
                f"{'PASS' if audit.passed else 'FAIL'}  "
                f"committed={audit.committed_txns}")
            if not audit.passed:
                lines.extend("    " + line
                             for line in audit.summary().splitlines())
                lines.append("    replay: python -m repro sansim "
                             f"--replay {result.spec.render()}")
    return "\n".join(lines)


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run ``repro sansim``; ``parser`` reports usage errors (exit 2)."""
    if args.list_workloads:
        return _list_workloads()
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}; "
                     f"expected one of {', '.join(sorted(WORKLOADS))}")
    if args.replay:
        try:
            spec = parse_replay_spec(args.replay)
        except ValueError as exc:
            parser.error(str(exc))
        results = [ExplorationResult(workload=spec.workload, seed=spec.seed,
                                     results=[replay_spec(spec)])]
    else:
        results = [explore(workload, trials=args.trials, seed=args.seed,
                           policy=args.policy)
                   for workload in args.workloads]
    if args.output_format == "json":
        emit(_render_json(results), args.output)
    else:
        emit(_render_text(results), args.output)
    for result in results:
        print(f"sansim: {result.workload}: {len(result.results)} "
              f"trial(s), {len(result.failures)} failing the audit",
              file=sys.stderr)
    return 1 if any(result.failures for result in results) else 0
