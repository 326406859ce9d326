"""sansim command line: ``repro sansim [workloads ...]``.

Runs the schedule explorer over the named workloads, reconciles the
deduplicated witnesses with simlint's ATM findings, and renders the
report. Exit codes are ``repro analyze``'s: 0 clean (or all witnesses
baselined), 1 new witnesses (or stale baseline entries under
``--fail-on-stale``), 2 usage error. Under ``--expect-witness`` the
polarity flips — the seeded-bug CI job *requires* a witness — and the
run exits 0 iff at least one witness was found.

``--replay workload:trial:policy:seed`` re-runs exactly one trial (the
spec every witness prints) instead of exploring; determinism of the
kernel plus the seeded policies makes the witness reproduce bit-for-bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from ..analysis.baseline import (Baseline, BaselineError, apply_baseline,
                                 emit)
from .explorer import (ExplorationResult, explore, parse_replay_spec,
                       replay_spec)
from .policies import POLICY_NAMES
from .report import (build_report, render_payload, render_sarif_report,
                     render_text, witness_to_finding)
from .workloads import workload_names

__all__ = ["add_arguments", "run"]

DEFAULT_WORKLOADS = ("retwis", "ycsb")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Fill in the ``repro sansim`` subparser."""
    parser.description = ("sansim: happens-before race sanitizer with "
                          "systematic schedule exploration for the "
                          "SEMEL/MILANA simulation")
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
                             "(default: trial 0 fifo, then alternating "
                             "random/targeted)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="output_format")
    Baseline.add_arguments(parser, "witnesses")
    parser.add_argument("--expect-witness", action="store_true",
                        help="invert the exit polarity: succeed iff at "
                             "least one witness was found (seeded-bug "
                             "CI jobs)")
    parser.add_argument("--replay", metavar="SPEC",
                        help="re-run one trial from a witness's "
                             "workload:trial:policy:seed spec")
    parser.add_argument("--list-workloads", action="store_true",
                        help="print the workload catalogue and exit")


def _list_workloads() -> int:
    from .workloads import STATIC_SCOPES
    for name in workload_names():
        scope = STATIC_SCOPES.get(name, "")
        print(f"{name:10s}  reconciled against: {scope}")
    return 0


def _explore_all(args: argparse.Namespace) -> List[ExplorationResult]:
    results = []
    for workload in args.workloads:
        result = explore(workload, trials=args.trials, seed=args.seed,
                         policy=args.policy)
        print(f"sansim: explored {workload}: {args.trials} trial(s), "
              f"{len(result.witnesses)} distinct witness(es)",
              file=sys.stderr)
        results.append(result)
    return results


def _replay_one(args: argparse.Namespace,
                parser: argparse.ArgumentParser
                ) -> List[ExplorationResult]:
    try:
        spec = parse_replay_spec(args.replay)
    except ValueError as exc:
        parser.error(str(exc))
        raise  # unreachable; keeps type-checkers happy
    trial = replay_spec(spec)
    print(f"sansim: replayed {spec.render()}: "
          f"{len(trial.witnesses)} witness(es)", file=sys.stderr)
    return [ExplorationResult(
        workload=spec.workload, trials=1, seed=spec.seed,
        witnesses=trial.witnesses,
        flagged_locations=set(trial.flagged_locations),
        trial_stats=[trial.stats])]


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run ``repro sansim``; ``parser`` reports usage errors (exit 2)."""
    if args.list_workloads:
        return _list_workloads()
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    known = set(workload_names())
    unknown = [w for w in args.workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}; "
                     f"expected one of {', '.join(sorted(known))}")
    # apply_baseline checks this too; here it costs no exploration.
    if (args.update_baseline or args.fail_on_stale) and not args.baseline:
        parser.error("--update-baseline/--fail-on-stale require "
                     "--baseline FILE")
    if args.replay:
        results = _replay_one(args, parser)
    else:
        results = _explore_all(args)
    report = build_report(results)
    findings = [witness_to_finding(w) for w in report.witnesses]

    if args.write_baseline:
        Baseline.from_findings(findings).save(args.write_baseline)
        print(f"sansim: wrote {len(findings)} entr"
              f"{'y' if len(findings) == 1 else 'ies'} to "
              f"{args.write_baseline}", file=sys.stderr)
        return 0

    try:
        new_findings, baselined, stale = apply_baseline(
            findings, args, "sansim")
    except BaselineError as exc:
        parser.error(str(exc))
        raise  # unreachable; keeps type-checkers happy
    # Findings and witnesses pair by position; apply_baseline hands the
    # finding objects back, so identity picks the witnesses out.
    new_ids = {id(finding) for finding in new_findings}
    new = [witness for finding, witness in zip(findings, report.witnesses)
           if id(finding) in new_ids]

    if args.output_format == "json":
        payload = render_payload(results, report)
        payload["new_witnesses"] = [w.fingerprint for w in new]
        payload["baselined"] = len(baselined)
        if stale is not None:
            payload["stale_baseline"] = stale
        emit(json.dumps(payload, indent=2), args.output)
    elif args.output_format == "sarif":
        emit(render_sarif_report(new), args.output)
    else:
        document = render_text(results, report, new_witnesses=new,
                               baselined=len(baselined))
        emit(document, args.output)

    if args.expect_witness:
        if report.witnesses:
            return 0
        print("sansim: expected at least one witness, found none",
              file=sys.stderr)
        return 1
    if new:
        return 1
    if args.fail_on_stale and stale:
        return 1
    return 0
