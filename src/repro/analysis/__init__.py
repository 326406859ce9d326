"""simlint: determinism & protocol-hygiene static analysis for this repo.

The reproduction's headline guarantee — identical abort-rate/latency
numbers run-to-run for a fixed seed — is a *whole-codebase* invariant.
One ``time.time()`` in an event handler, one bare ``random.random()``,
or one iteration over an unordered ``set`` feeding replication fan-out
silently breaks it. ``repro.analysis`` enforces those rules with an
AST-based analyzer:

* one rule framework (``engine``): per-module import maps, the rule
  registry, ``Rule.applies_to`` scoping and ``Rule.finding``,
* module rules (``rules``) — DET001..DET004, SIM001, RPC001, WIRE001,
  PAR001, FLT001, API001, SUP001,
* whole-program rules over a project model that walks each handler or
  daemon once (``project``, ``iprules``, ``durrules``) — ATM001/ATM002,
  PRO001..PRO004, DET101, DUR001..DUR005,
* inline ``# simlint: disable=RULE`` suppressions,
* a checked-in baseline file for grandfathered findings (``baseline``),
* a CLI: ``python -m repro.analysis [paths] [--format text|json]``,
  also exposed as ``python -m repro analyze``.

See ``docs/ANALYSIS.md`` for the rule catalogue and rationale.
"""

from __future__ import annotations

from .baseline import Baseline
from .engine import ModuleContext, Rule, all_rules, analyze_paths, rule
from .findings import Finding, Severity

__all__ = [
    "Baseline",
    "Finding",
    "ModuleContext",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_paths",
    "rule",
]
