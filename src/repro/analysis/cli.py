"""simlint command line: ``python -m repro.analysis [paths ...]``.

Exit codes: 0 clean (or all findings baselined), 1 findings (or stale
baseline entries under ``--fail-on-stale``), 2 usage error. ``--format
json`` emits a machine-readable report (schema pinned by
``tests/test_analysis.py``); ``--format sarif`` emits SARIF 2.1.0 for
code-scanning backends; ``--format github`` emits GitHub Actions
workflow commands so findings annotate the PR diff.

``--from-json FILE`` re-renders a report previously saved with
``--format json`` without re-analyzing — CI analyzes once (against the
baseline, producing the JSON artifact) and derives the SARIF upload and
PR annotations from that single run. As a pure renderer it always
exits 0.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .baseline import Baseline, BaselineError, apply_baseline, emit
from .engine import all_rules, analyze_paths
from .findings import Finding, Severity

__all__ = ["main", "build_parser"]

DEFAULT_PATHS = ("src/repro",)


def build_parser(prog: str = "repro.analysis") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=("simlint: determinism & protocol-hygiene static "
                     "analysis for the SEMEL/MILANA reproduction"))
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json", "sarif",
                                             "github"),
                        default="text", dest="output_format")
    Baseline.add_arguments(parser, "findings")
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
    return parser


def _split_rules(text: Optional[str]) -> Optional[List[str]]:
    if not text:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _list_rules() -> int:
    """The full catalogue: static simlint rules plus (when the package
    is importable) the dynamic sansim rules, with each rule's family,
    domain, and cross-domain counterpart."""
    rows: List[Tuple[str, str, str, str, str, str]] = []
    for rule_id, r in sorted(all_rules().items()):
        rows.append((rule_id, r.severity, r.rule_family, r.domain,
                     r.counterpart, r.description))
    try:
        # Imported dynamically: the sansim package is untyped simulation
        # machinery and must stay out of this module's static surface.
        sansim: Any = importlib.import_module("repro.sansim.rules")
    except ImportError:  # pragma: no cover - sansim ships alongside
        sansim = None
    if sansim is not None:
        for rule_id, dyn in sorted(sansim.SANITIZER_RULES.items()):
            rows.append((rule_id, dyn.severity, dyn.family, dyn.domain,
                         dyn.counterpart, dyn.description))
    for rule_id, severity, family, domain, counterpart, description \
            in rows:
        twin = f" [twin: {counterpart}]" if counterpart else ""
        print(f"{rule_id}  [{severity:7s}]  {family}/{domain:7s} "
              f"{description}{twin}")
    return 0


def _render_text(new: List[Finding], baselined: int,
                 files: int, stale: int,
                 output: Optional[str]) -> None:
    if new or output:
        emit("\n".join(f.render() for f in new), output)
    noun = "file" if files == 1 else "files"
    suffix = f" ({baselined} baselined)" if baselined else ""
    if stale:
        suffix += f" ({stale} stale baseline entr" \
                  f"{'y' if stale == 1 else 'ies'})"
    print(f"simlint: {len(new)} finding(s) in {files} {noun}{suffix}",
          file=sys.stderr)


def _render_json(new: List[Finding], baselined: int,
                 files: int, stale: Optional[int],
                 output: Optional[str]) -> None:
    counts: Dict[str, int] = {}
    for finding in new:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    payload = {
        "version": 1,
        "files_checked": files,
        "findings": [f.to_json() for f in new],
        "baselined": baselined,
        "counts_by_rule": counts,
    }
    if stale is not None:  # additive key, only on --baseline runs
        payload["stale_baseline"] = stale
    emit(json.dumps(payload, indent=2), output)


def _render_sarif(new: List[Finding], select: Optional[List[str]],
                  ignore: Optional[List[str]],
                  output: Optional[str]) -> None:
    from .sarif import render_sarif
    registry = all_rules()
    active = {rid: r for rid, r in registry.items()
              if (not select or rid in select)
              and not (ignore and rid in ignore)}
    emit(render_sarif(new, active), output)


def _render_github(new: List[Finding], baselined: int,
                   files: int, output: Optional[str]) -> None:
    lines = []
    for f in new:
        kind = "error" if f.severity == Severity.ERROR else "warning"
        # Workflow-command escaping: the message ends at the first
        # newline/percent unless encoded.
        message = (f.message.replace("%", "%25")
                   .replace("\r", "%0D").replace("\n", "%0A"))
        lines.append(f"::{kind} file={f.path},line={f.line},"
                     f"col={f.col + 1},title=simlint {f.rule_id}::"
                     f"{message}")
    emit("\n".join(lines), output)
    noun = "file" if files == 1 else "files"
    suffix = f" ({baselined} baselined)" if baselined else ""
    print(f"simlint: {len(new)} finding(s) in {files} {noun}{suffix}",
          file=sys.stderr)


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
    findings = [
        Finding(path=item["path"], line=int(item["line"]),
                col=int(item["col"]), rule_id=item["rule_id"],
                severity=item["severity"], message=item["message"])
        for item in payload.get("findings", [])
    ]
    files = int(payload.get("files_checked", 0))
    baselined = int(payload.get("baselined", 0))
    stale = payload.get("stale_baseline")
    stale_count = int(stale) if stale is not None else None
    if args.output_format == "json":
        _render_json(findings, baselined, files, stale_count, args.output)
    elif args.output_format == "sarif":
        _render_sarif(findings, None, None, args.output)
    elif args.output_format == "github":
        _render_github(findings, baselined, files, args.output)
    else:
        _render_text(findings, baselined, files, stale_count or 0,
                     args.output)
    return 0


def main(argv: Optional[Sequence[str]] = None,
         prog: str = "repro.analysis") -> int:
    parser = build_parser(prog)
    args = parser.parse_args(argv)
    if args.list_rules:
        return _list_rules()
    if args.from_json:
        if (args.baseline or args.write_baseline or args.update_baseline
                or args.fail_on_stale or args.select or args.ignore):
            parser.error("--from-json renders a saved report; baseline "
                         "and rule-selection flags apply only when "
                         "analyzing")
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
    if args.write_baseline:
        Baseline.from_findings(findings).save(args.write_baseline)
        print(f"simlint: wrote {len(findings)} entr"
              f"{'y' if len(findings) == 1 else 'ies'} to "
              f"{args.write_baseline}", file=sys.stderr)
        return 0
    try:
        new, baselined, stale = apply_baseline(findings, args, "simlint")
    except BaselineError as exc:
        parser.error(str(exc))  # exits 2
        return 2  # unreachable; keeps type-checkers happy
    if args.output_format == "json":
        _render_json(new, len(baselined), files, stale, args.output)
    elif args.output_format == "sarif":
        _render_sarif(new, select, ignore, args.output)
    elif args.output_format == "github":
        _render_github(new, len(baselined), files, args.output)
    else:
        _render_text(new, len(baselined), files, stale or 0, args.output)
    if new:
        return 1
    if args.fail_on_stale and stale:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
