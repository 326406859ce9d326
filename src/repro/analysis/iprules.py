"""Interprocedural simlint rules over the :class:`~.project.Project`.

Two families (see docs/ANALYSIS.md for the catalogue):

* **ATM0xx — yield-point atomicity races.** A coroutine handler that
  *checks* shared server state, suspends (a yield anywhere in its
  transitive call chain), and then *acts* on the stale check has a
  time-of-check/time-of-use window: another handler interleaves at the
  suspension. ATM002 is that check-then-act pattern over any
  ``self.<attr>`` state family, inside one function or across calls.
* **DET1xx — interprocedural nondeterminism taint.** A helper that
  returns a wall-clock/``random`` value poisons every caller that
  stores it into simulator-visible state.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .engine import ProjectRule, rule
from .findings import Finding, Severity
from .project import Event, FunctionInfo, Project

__all__ = [
    "is_volatile_source",
    "tainted_functions",
    "CheckThenActRaceRule",
    "InterproceduralTaintRule",
]

#: Calls that read the host's wall clock.
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


def is_volatile_source(qualname: str) -> bool:
    """A fully-qualified call name that reads the wall clock or a
    non-seeded random stream — the sources DET101/DUR004 chase through
    helper returns."""
    return (qualname in _WALL_CLOCK_CALLS
            or qualname.split(".")[0] == "random"
            or qualname.startswith("numpy.random."))


def tainted_functions(project: Project) -> Set[str]:
    """Qualnames of functions whose return value derives from a
    wall-clock/random read, propagated through ``return helper(...)``
    chains, over DET101's scope. The taint engine DET101 and DUR004
    share, computed once per project."""
    if project.tainted is not None:
        return project.tainted
    scope = [info for info in project.functions.values()
             if InterproceduralTaintRule.applies_to(info.module.path)]
    sources: Set[str] = set()
    for info in scope:
        if not info.returns:
            continue
        ctx = info.module
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                qualname = ctx.qualname(node.func)
                if qualname is not None and is_volatile_source(qualname):
                    sources.add(info.qualname)
                    break
    # Propagate through ``return helper(...)`` chains.
    changed = True
    while changed:
        changed = False
        for info in scope:
            if info.qualname in sources:
                continue
            for ret in info.returns:
                if ret.value is None:
                    continue
                for call in ast.walk(ret.value):
                    if not isinstance(call, ast.Call):
                        continue
                    callee = project.resolve_call(info, call)
                    if callee is not None and \
                            callee.qualname in sources:
                        sources.add(info.qualname)
                        changed = True
                        break
                if info.qualname in sources:
                    break
    project.tainted = sources
    return sources


@rule
class CheckThenActRaceRule(ProjectRule):
    """ATM002: check-then-act on shared server state across a yield.

    A guard that reads ``self.<attr>`` state, a suspension point, and
    then a write to the same state family — with no intervening
    re-check or completed check-then-act — lets a concurrent handler
    change the state the guard observed. Writes made while an
    ``_inflight*`` coalescing entry is held, or in ``finally`` blocks,
    are the sanctioned critical-section pattern and are exempt.
    """

    rule_id = "ATM002"
    severity = Severity.ERROR
    description = ("check-then-act race: shared self.* state guarded "
                   "before a suspension point and written after it "
                   "without re-checking")
    required_path_parts = ("milana", "semel")

    #: State families that are monotonic counters / metrics, where the
    #: guard-write pattern is not a race.
    IGNORED_FAMILIES = frozenset({
        "validation_failures", "ctp_resolutions", "puts_rejected_stale",
        "puts_deduplicated", "handler_errors",
    })

    def report_key(self, event: Event) -> Tuple[object, ...]:
        # One finding per state family written on a line.
        return super().report_key(event) + (event.family,)

    def check_events(self, root: FunctionInfo, events: List[Event]
                     ) -> Iterator[Tuple[Event, str]]:
        suspends = 0
        last_suspend: Optional[Event] = None
        # family -> (guard event, suspend count at guard time)
        pending: Dict[str, Tuple[Event, int]] = {}
        for event in events:
            if event.kind == "suspend":
                suspends += 1
                last_suspend = event
            elif event.kind == "guard_read":
                assert event.family is not None
                pending[event.family] = (event, suspends)
            elif event.kind == "write":
                family = event.family
                assert family is not None
                if family in self.IGNORED_FAMILIES:
                    continue
                entry = pending.pop(family, None)
                if event.in_finally or event.lock_depth > 0:
                    # Sanctioned critical section / cleanup: neither a
                    # race nor a completed check-then-act.
                    if entry is not None:
                        pending[family] = entry
                    continue
                if entry is None:
                    continue
                guard, guard_suspends = entry
                if suspends <= guard_suspends:
                    continue  # check-then-act completed before yielding
                assert last_suspend is not None
                yield event, (
                    f"{root.name!r} checks self.{family} "
                    f"(in {guard.function.name!r} line {guard.lineno}) "
                    f"but writes it in {event.function.name!r} after a "
                    f"suspension at {last_suspend.function.name!r} line "
                    f"{last_suspend.lineno}; re-check after the yield or "
                    f"hold an in-flight guard")


@rule
class InterproceduralTaintRule(ProjectRule):
    """DET101: wall-clock/random values flowing into state via helpers.

    The rule follows the value, not the call: a function whose return
    derives from a wall-clock or ``random`` read taints every call site,
    and storing a tainted value into ``self.*`` state (or feeding it to
    ``sim.timeout``-style scheduling) breaks determinism one function
    removed from the offending call.
    """

    rule_id = "DET101"
    severity = Severity.ERROR
    description = ("value derived from a wall-clock/random read in a "
                   "helper flows into simulator or server state")
    excluded_path_suffixes = ("sim/rng.py",)

    _SCHEDULING_ATTRS = frozenset({"timeout", "schedule", "at", "after"})

    def check_project(self, project: Project) -> Iterable[Finding]:
        tainted = tainted_functions(project)
        if not tainted:
            return
        for info in project.functions.values():
            if self.applies_to(info.module.path):
                yield from self._sinks(project, info, tainted)

    def _sinks(self, project: Project, info: FunctionInfo,
               tainted: Set[str]) -> Iterator[Finding]:
        def tainted_call_in(expr: ast.AST) -> Optional[str]:
            for call in ast.walk(expr):
                if isinstance(call, ast.Call):
                    callee = project.resolve_call(info, call)
                    if callee is not None and callee.qualname in tainted:
                        return callee.name
            return None

        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                if not any(self._is_state_target(t) for t in targets):
                    continue
                source = tainted_call_in(node.value)
                if source is not None:
                    yield self.finding(
                        info.module.path, node,
                        f"{info.name!r} stores a value from "
                        f"{source!r}, which derives from a wall-clock/"
                        f"random read, into self.* state; derive it "
                        f"from Simulator.now or a SeededRng substream")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in self._SCHEDULING_ATTRS:
                for arg in node.args:
                    source = tainted_call_in(arg)
                    if source is not None:
                        yield self.finding(
                            info.module.path, node,
                            f"{info.name!r} feeds a value from "
                            f"{source!r}, which derives from a "
                            f"wall-clock/random read, into simulator "
                            f"scheduling; use Simulator.now or a "
                            f"SeededRng substream")
                        break

    @staticmethod
    def _is_state_target(target: ast.AST) -> bool:
        if isinstance(target, ast.Attribute):
            return isinstance(target.value, ast.Name) and \
                target.value.id == "self"
        if isinstance(target, ast.Subscript):
            return InterproceduralTaintRule._is_state_target(target.value)
        return False
