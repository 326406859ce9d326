"""SARIF 2.1.0 rendering for simlint findings.

SARIF (Static Analysis Results Interchange Format) is the lingua franca
of code-scanning backends — GitHub code scanning ingests it directly,
so CI can surface simlint findings as first-class alerts instead of log
lines. The emitter is deliberately minimal: one run, one tool driver,
``partialFingerprints`` carrying the same stable fingerprint the JSON
output uses (line-free, so alert identity survives line churn).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from .engine import Rule
from .findings import Finding, Severity

__all__ = ["render_sarif"]

_SARIF_VERSION = "2.1.0"
_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
           "master/Schemata/sarif-schema-2.1.0.json")

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _rule_descriptor(rule_id: str, rule: Rule) -> Dict[str, Any]:
    return {
        "id": rule_id,
        "shortDescription": {"text": rule.description or rule_id},
        "defaultConfiguration": {
            "level": _LEVELS.get(rule.severity, "warning"),
        },
    }


def _result(finding: Finding, rule_index: Dict[str, int]) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": finding.rule_id,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {
                    "startLine": finding.line,
                    "startColumn": finding.col + 1,
                },
            },
        }],
        "partialFingerprints": {
            "simlint/v1": finding.fingerprint,
        },
    }
    index = rule_index.get(finding.rule_id)
    if index is not None:
        result["ruleIndex"] = index
    return result


def render_sarif(findings: Iterable[Finding],
                 rules: Dict[str, Rule]) -> str:
    """A complete SARIF 2.1.0 log document as a JSON string.

    ``rules`` is the active rule registry (id -> instance); every active
    rule is listed in the driver descriptor even when it produced no
    results, which is what lets code scanning close alerts for rules
    that went quiet.
    """
    ordered = sorted(rules)
    rule_index = {rule_id: i for i, rule_id in enumerate(ordered)}
    results: List[Dict[str, Any]] = [
        _result(f, rule_index) for f in findings]
    log = {
        "$schema": _SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "simlint",
                    "rules": [_rule_descriptor(rid, rules[rid])
                              for rid in ordered],
                },
            },
            "columnKind": "unicodeCodePoints",
            "results": results,
        }],
    }
    return json.dumps(log, indent=2)
