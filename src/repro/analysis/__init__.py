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
* module rules (``rules``) — SIM001, PAR001,
* whole-program rules over a project model that walks each handler or
  daemon once (``project``, ``iprules``, ``durrules``) — ATM002,
  DET101, DUR001, DUR003..DUR005,
* the ``repro analyze`` subcommand's arguments and run body (``cli``),
  the one entry point.

Every finding fails the run: there are no suppression comments and no
baseline. See ``docs/ANALYSIS.md`` for the rule catalogue, its
rationale, and the gates that replaced the retired rules.
"""

from __future__ import annotations

from .engine import ModuleContext, Rule, all_rules, analyze_paths, rule
from .findings import Finding, Severity

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_paths",
    "rule",
]
