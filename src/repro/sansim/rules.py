"""Rule descriptors for the dynamic sanitizer.

These mirror the shape of :class:`repro.analysis.engine.Rule` closely
enough (``severity`` + ``description``) for the existing SARIF emitter
to render sansim witnesses through the same machinery, and they carry
the static/dynamic pairing that ``simlint --list-rules`` (which lists
this catalogue as the ``dynamic`` domain, each rule's family being its
id prefix) and the reconciliation report surface:

* SAN001 is the dynamic twin of ATM002 (and of ATM001's single-frame
  lock-protocol variant): a *witnessed* check-suspend-write staleness.
* SAN002 is the dynamic twin of ATM001: a *witnessed* pair of writes
  with no happens-before edge, where the static rule could only point
  at a validate/apply split across a suspension.

This module deliberately imports nothing from the rest of the package
(and stays ``mypy --strict``-clean) so the analysis CLI can list the
dynamic catalogue without dragging the tracer runtime in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["SANITIZER_RULES", "SanitizerRule"]


@dataclass(frozen=True)
class SanitizerRule:
    """One dynamic rule: id, severity, prose, and its static twin."""

    rule_id: str
    severity: str
    description: str
    #: The simlint rule approximating the same bug class statically.
    counterpart: str = ""


SANITIZER_RULES: Dict[str, SanitizerRule] = {
    rule.rule_id: rule
    for rule in (
        SanitizerRule(
            rule_id="SAN001",
            severity="error",
            description=(
                "stale-guard write: a section read tracked state, "
                "suspended, and wrote it while a concurrent writer "
                "changed it in between (dynamic twin of ATM002)"),
            counterpart="ATM002",
        ),
        SanitizerRule(
            rule_id="SAN002",
            severity="error",
            description=(
                "unordered write-write race: two writes to one tracked "
                "location with no happens-before edge and no common "
                "lock; exclusive locations report a single-apply "
                "invariant violation (dynamic twin of ATM001)"),
            counterpart="ATM001",
        ),
    )
}
