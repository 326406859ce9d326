"""simlint command line: ``repro analyze [paths ...]``.

Exit codes: 0 clean, 1 any finding, 2 usage error. ``--format
json`` emits a machine-readable report (schema pinned by
``tests/test_analysis.py``); ``--format sarif`` emits SARIF 2.1.0 for
code-scanning backends; ``--format github`` emits GitHub Actions
workflow commands so findings annotate the PR diff.

``--from-json FILE`` re-renders a report previously saved with
``--format json`` without re-analyzing — CI analyzes once (producing
the JSON artifact) and derives the SARIF upload and PR annotations from
that single run. As a pure renderer it always exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .engine import all_rules, analyze_paths
from .findings import Finding, Severity

__all__ = ["add_arguments", "run"]

DEFAULT_PATHS = ("src/repro",)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Fill in the ``repro analyze`` subparser."""
    parser.description = ("simlint: determinism & protocol-hygiene static "
                          "analysis for the SEMEL/MILANA reproduction")
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json", "sarif",
                                             "github"),
                        default="text", dest="output_format")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--ignore", metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--from-json", metavar="FILE", dest="from_json",
                        help="render a report saved with --format json "
                             "instead of re-analyzing (pure renderer: "
                             "always exits 0)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")


def _split_rules(text: Optional[str]) -> Optional[List[str]]:
    if not text:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _list_rules() -> int:
    """The rule catalogue, with each rule's family and cross-domain
    counterpart."""
    for rule_id, r in sorted(all_rules().items()):
        family = "".join(ch for ch in rule_id if ch.isalpha())
        twin = f" [twin: {r.counterpart}]" if r.counterpart else ""
        print(f"{rule_id}  [{r.severity:7s}]  {family}/static  "
              f"{r.description}{twin}")
    return 0


def _emit(document: str, output: Optional[str]) -> None:
    """Write a rendered report to ``--output`` or stdout."""
    if output:
        Path(output).write_text(document + "\n", encoding="utf-8")
    else:
        print(document)


def _summary(findings: List[Finding], files: int) -> None:
    noun = "file" if files == 1 else "files"
    print(f"simlint: {len(findings)} finding(s) in {files} {noun}",
          file=sys.stderr)


def _render_text(findings: List[Finding], files: int,
                 output: Optional[str]) -> None:
    if findings or output:
        _emit("\n".join(f.render() for f in findings), output)
    _summary(findings, files)


def _render_json(findings: List[Finding], files: int,
                 output: Optional[str]) -> None:
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    payload = {
        "version": 1,
        "files_checked": files,
        "findings": [f.to_json() for f in findings],
        "counts_by_rule": counts,
    }
    _emit(json.dumps(payload, indent=2), output)


def _render_sarif(findings: List[Finding], select: Optional[List[str]],
                  ignore: Optional[List[str]],
                  output: Optional[str]) -> None:
    from .sarif import render_sarif
    registry = all_rules()
    active = {rid: r for rid, r in registry.items()
              if (not select or rid in select)
              and not (ignore and rid in ignore)}
    _emit(render_sarif(findings, active), output)


def _render_github(findings: List[Finding], files: int,
                   output: Optional[str]) -> None:
    lines = []
    for f in findings:
        kind = "error" if f.severity == Severity.ERROR else "warning"
        # Workflow-command escaping: the message ends at the first
        # newline/percent unless encoded.
        message = (f.message.replace("%", "%25")
                   .replace("\r", "%0D").replace("\n", "%0A"))
        lines.append(f"::{kind} file={f.path},line={f.line},"
                     f"col={f.col + 1},title=simlint {f.rule_id}::"
                     f"{message}")
    _emit("\n".join(lines), output)
    _summary(findings, files)


def _render(findings: List[Finding], files: int,
            args: argparse.Namespace, select: Optional[List[str]] = None,
            ignore: Optional[List[str]] = None) -> None:
    """Emit ``findings`` in the requested ``--format``."""
    if args.output_format == "json":
        _render_json(findings, files, args.output)
    elif args.output_format == "sarif":
        _render_sarif(findings, select, ignore, args.output)
    elif args.output_format == "github":
        _render_github(findings, files, args.output)
    else:
        _render_text(findings, files, args.output)


def _render_from_json(args: argparse.Namespace,
                      parser: argparse.ArgumentParser) -> int:
    """Pure-render mode: reconstruct findings from a saved JSON report
    and emit the requested format. Exit code is always 0 — the analysis
    run that produced the report already gated."""
    try:
        payload = json.loads(
            Path(args.from_json).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        parser.error(f"--from-json {args.from_json}: {exc}")
        raise  # unreachable; keeps type-checkers happy
    findings = [Finding.from_json(item)
                for item in payload.get("findings", [])]
    _render(findings, int(payload.get("files_checked", 0)), args)
    return 0


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run ``repro analyze``; ``parser`` reports usage errors (exit 2)."""
    if args.list_rules:
        return _list_rules()
    if args.from_json:
        if args.select or args.ignore:
            parser.error("--from-json renders a saved report; "
                         "rule-selection flags apply only when analyzing")
        return _render_from_json(args, parser)
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"path(s) do not exist: {', '.join(missing)}")
    select = _split_rules(args.select)
    ignore = _split_rules(args.ignore)
    try:
        findings, files = analyze_paths(args.paths, select=select,
                                        ignore=ignore)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
        return 2  # unreachable; keeps type-checkers happy
    _render(findings, files, args, select, ignore)
    return 1 if findings else 0
