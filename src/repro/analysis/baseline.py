"""Checked-in baseline for grandfathered findings.

A baseline lets the analyzer land with zero noise on a codebase that
still has violations: known findings are recorded once (by rule, path,
and message — deliberately not by line, so unrelated edits don't churn
the file) and the CLI only fails on *new* findings. The repo policy is
to keep the baseline empty or near-empty: fix violations, don't bank
them.

The lifecycle around the file is the same for every checker CLI that
reports :class:`Finding` objects (simlint here, sansim through
``witness_to_finding``): :meth:`Baseline.add_arguments` declares the
flags and :func:`apply_baseline` loads, splits, counts stale entries and
prunes.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .findings import Finding

__all__ = ["Baseline", "BaselineError", "apply_baseline", "emit"]

_FORMAT_VERSION = 1


class BaselineError(ValueError):
    """Malformed or unreadable baseline file, or baseline flags that
    contradict each other; a CLI reports it as a usage error."""


class Baseline:
    """A multiset of (rule, path, message) triples."""

    def __init__(self, entries: Iterable[Tuple[str, str, str]] = ()) -> None:
        self._entries = Counter(entries)

    def __len__(self) -> int:
        return sum(self._entries.values())

    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser, noun: str) -> None:
        """Declare ``--output`` and the baseline flags on ``parser``;
        ``noun`` is what the tool reports ("findings", "witnesses")."""
        parser.add_argument("--output", metavar="FILE",
                            help="write the report to FILE instead of "
                                 "stdout")
        parser.add_argument("--baseline", metavar="FILE",
                            help=f"suppress {noun} recorded in this "
                                 "baseline file")
        parser.add_argument("--write-baseline", metavar="FILE",
                            help=f"record current {noun} as the new "
                                 "baseline and exit 0")
        parser.add_argument("--update-baseline", action="store_true",
                            help="prune --baseline entries that no longer "
                                 "fire, rewriting the file in place")
        parser.add_argument("--fail-on-stale", action="store_true",
                            help="exit 1 if the baseline contains entries "
                                 "that no longer fire")

    @staticmethod
    def _key(finding: Finding) -> Tuple[str, str, str]:
        return (finding.rule_id, finding.path, finding.message)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        return cls(cls._key(f) for f in findings)

    @classmethod
    def load(cls, path: "str | Path") -> "Baseline":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise BaselineError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or "entries" not in data:
            raise BaselineError(f"{path}: expected an object with 'entries'")
        if data.get("version") != _FORMAT_VERSION:
            raise BaselineError(
                f"{path}: unsupported baseline version {data.get('version')!r}")
        entries = []
        for entry in data["entries"]:
            try:
                entries.append((entry["rule"], entry["path"],
                                entry["message"]))
            except (TypeError, KeyError) as exc:
                raise BaselineError(
                    f"{path}: malformed entry {entry!r}") from exc
        return cls(entries)

    def save(self, path: "str | Path") -> None:
        entries = []
        for (rule_id, file_path, message), count in sorted(
                self._entries.items()):
            for _ in range(count):
                entries.append({"rule": rule_id, "path": file_path,
                                "message": message})
        payload = {"version": _FORMAT_VERSION, "entries": entries}
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=False) + "\n",
            encoding="utf-8")

    def split(self, findings: Iterable[Finding]
              ) -> Tuple[List[Finding], List[Finding]]:
        """Partition into (new, baselined), consuming one baseline entry
        per matched finding so duplicate regressions still surface."""
        remaining = Counter(self._entries)
        new: List[Finding] = []
        matched: List[Finding] = []
        for finding in findings:
            key = self._key(finding)
            if remaining[key] > 0:
                remaining[key] -= 1
                matched.append(finding)
            else:
                new.append(finding)
        return new, matched

    def stale_entries(self, findings: Iterable[Finding]
                      ) -> List[Tuple[str, str, str]]:
        """Baseline entries that no current finding matches.

        A stale entry means the underlying violation was fixed but the
        grandfather record was never pruned — dead weight that would
        silently mask a future regression with the same message."""
        remaining = Counter(self._entries)
        for finding in findings:
            key = self._key(finding)
            if remaining[key] > 0:
                remaining[key] -= 1
        stale: List[Tuple[str, str, str]] = []
        for key, count in sorted(remaining.items()):
            stale.extend([key] * count)
        return stale

    def pruned(self, findings: Iterable[Finding]) -> "Baseline":
        """A copy with stale entries removed (``--update-baseline``)."""
        keep = Counter(self._entries)
        keep.subtract(Counter(self.stale_entries(findings)))
        return Baseline(
            key for key, count in keep.items() for _ in range(count)
            if count > 0)


def apply_baseline(findings: Sequence[Finding], args: argparse.Namespace,
                   tool: str) -> Tuple[List[Finding], List[Finding],
                                       Optional[int]]:
    """Run the ``--baseline`` lifecycle over ``findings``.

    Returns ``(new, baselined, stale)``: the findings the baseline does
    not cover, the ones it does (both keep the input order and the input
    objects, so a caller can pair them back by position), and the number
    of baseline entries nothing matched — ``None`` without
    ``--baseline``, 0 after ``--update-baseline`` pruned them. ``args``
    holds the flags of :meth:`Baseline.add_arguments`; ``tool`` prefixes
    the stderr note. Raises :class:`BaselineError` on a usage error.
    """
    if not args.baseline:
        if args.update_baseline or args.fail_on_stale:
            raise BaselineError("--update-baseline/--fail-on-stale "
                                "require --baseline FILE")
        return list(findings), [], None
    try:
        baseline = Baseline.load(args.baseline)
    except OSError as exc:
        raise BaselineError(str(exc)) from exc
    new, baselined = baseline.split(findings)
    stale = len(baseline.stale_entries(findings))
    if args.update_baseline and stale:
        baseline.pruned(findings).save(args.baseline)
        print(f"{tool}: pruned {stale} stale entr"
              f"{'y' if stale == 1 else 'ies'} from {args.baseline}",
              file=sys.stderr)
        stale = 0
    return new, baselined, stale


def emit(document: str, output: Optional[str]) -> None:
    """Write a rendered report to ``--output`` or stdout."""
    if output:
        Path(output).write_text(document + "\n", encoding="utf-8")
    else:
        print(document)
