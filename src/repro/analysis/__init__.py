"""simlint: determinism & protocol-hygiene static analysis for this repo.

The reproduction's headline guarantee — identical abort-rate/latency
numbers run-to-run for a fixed seed — is checked by running the code:
the golden fingerprints, the benchmark digests and the nemesis outputs
change when a wall-clock read, a global ``random`` draw or an unordered
iteration reaches a result. ``repro.analysis`` keeps the rules those
gates cannot see — bugs on paths no run reaches, or that change no
output — with an AST-based analyzer:

* one rule framework (``engine``): per-module import maps, the rule
  registry, ``Rule.applies_to`` scoping and ``Rule.finding``,
* module rules (``rules``) — SIM001, RPC001, PAR001, FLT001, API001,
  SUP001,
* whole-program rules over a project model that walks each handler or
  daemon once (``project``, ``iprules``, ``durrules``) — ATM002,
  PRO004, DET101, DUR001, DUR003..DUR005,
* inline ``# simlint: disable=RULE`` suppressions,
* a checked-in baseline file for grandfathered findings (``baseline``),
* the ``repro analyze`` subcommand's arguments and run body (``cli``);
  ``python -m repro.analysis`` is an alias of it.

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
