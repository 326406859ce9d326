"""Interprocedural simlint rules over the :class:`~.project.Project`.

Three families (see docs/ANALYSIS.md for the catalogue):

* **ATM0xx — yield-point atomicity races.** A coroutine handler that
  *checks* shared server state, suspends (a yield anywhere in its
  transitive call chain), and then *acts* on the stale check has a
  time-of-check/time-of-use window: another handler interleaves at the
  suspension. ATM001 is MILANA's validate → yield → record window,
  inside one function or across calls; ATM002 is the general
  check-then-act pattern over any ``self.<attr>`` state family.
* **PRO0xx — protocol conformance against the repro.wire registry.**
  Registration completeness (PRO001), handler reply types (PRO002),
  reachable RpcError/timeout handling on every registered-method call
  path (PRO003), and exception leakage out of handlers/daemons
  (PRO004 — the rule that catches a ``QuorumError`` escaping through
  ``except RpcError`` clauses, because it is *not* an RpcError).
* **DET1xx — interprocedural nondeterminism taint.** A helper that
  returns a wall-clock/``random`` value poisons every caller that
  stores it into simulator-visible state, even though no single
  function violates DET001/DET002 on its own line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..wire.registry import REGISTRY
from .engine import ProjectRule, rule, simple_name
from .findings import Finding, Severity
from .project import Event, FunctionInfo, Project, RegisterSite, uncaught
from .rules import WallClockRule

__all__ = [
    "is_volatile_source",
    "tainted_functions",
    "InterproceduralValidateRaceRule",
    "CheckThenActRaceRule",
    "RegistrationConformanceRule",
    "HandlerReplyTypeRule",
    "UnhandledRpcFailureRule",
    "HandlerExceptionLeakRule",
    "InterproceduralTaintRule",
]

#: Wire message class names, for PRO002 reply-type matching.
_WIRE_CLASS_NAMES = (
    {spec.request.__name__ for spec in REGISTRY.values()}
    | {spec.response.__name__ for spec in REGISTRY.values()})


def _namespace(method: str) -> str:
    return method.split(".")[0]


@rule
class InterproceduralValidateRaceRule(ProjectRule):
    """ATM001: validate → suspension → outcome recording.

    MILANA's Algorithm 1 checks, and the transaction-table/prepared-mark
    updates that record their verdict, must happen on the same side of
    any suspension: a yield in between lets a concurrent prepare
    interleave so both transactions validate against pre-update state
    (OCC time-of-check/time-of-use). The rule replays the whole
    transitive call chain of each MILANA handler/daemon, so splitting
    the validation or the recording into a helper does not hide the
    window, and then of every other ``milana/`` generator that calls
    ``*validate(...)`` itself. Re-validating after the yield is the
    sanctioned escape hatch.
    """

    rule_id = "ATM001"
    severity = Severity.ERROR
    description = ("interprocedural OCC race: a suspension between "
                   "validate(...) and recording its outcome, across the "
                   "handler's call chain")
    required_path_parts = ("milana",)
    counterpart = "SAN002"

    def roots(self, project: Project) -> List[FunctionInfo]:
        """Handlers and daemons first, so a race they reach is reported
        naming them; then the remaining validating generators."""
        roots = super().roots(project)
        seen = {fn.qualname for fn in roots}
        return roots + [
            fn for qualname, fn in sorted(project.functions.items())
            if qualname not in seen and fn.is_generator
            and self.applies_to(fn.module.path) and _calls_validate(fn)]

    def check_events(self, root: FunctionInfo, events: List[Event]
                     ) -> Iterator[Tuple[Event, str]]:
        validate: Optional[Event] = None
        validate_suspends = 0
        suspends = 0
        last_suspend: Optional[Event] = None
        for event in events:
            if event.kind == "suspend":
                suspends += 1
                last_suspend = event
            elif event.kind == "validate":
                validate = event
                validate_suspends = suspends
            elif event.kind == "record" and validate is not None \
                    and suspends > validate_suspends:
                assert last_suspend is not None
                yield event, (
                    f"{root.name!r} validates "
                    f"(in {validate.function.name!r} line "
                    f"{validate.lineno}) but records the outcome in "
                    f"{event.function.name!r} after a suspension at "
                    f"{last_suspend.function.name!r} line "
                    f"{last_suspend.lineno}; revalidate after the "
                    f"yield or record before it")


def _calls_validate(info: FunctionInfo) -> bool:
    """Whether ``info`` itself calls a ``*validate`` function."""
    for site in info.call_sites:
        qualname = info.module.qualname(site.node.func)
        if qualname and qualname.split(".")[-1].endswith("validate"):
            return True
    return False


def is_volatile_source(qualname: str) -> bool:
    """A fully-qualified call name that reads the wall clock or a
    non-seeded random stream — the sources DET001/DET002 flag directly
    and DET101/DUR004 chase through helper returns."""
    return (qualname in WallClockRule.WALL_CLOCK_CALLS
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
    counterpart = "SAN001"

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
class RegistrationConformanceRule(ProjectRule):
    """PRO001: the handler surface matches the wire registry.

    The only cross-check of the registry against the code. Every
    registered wire method has exactly one handler registration in the
    analyzed tree, and every ``register``/``call``/``send_oneway``/
    ``replicate_to_backups`` site with a dotted method name (positional
    or ``method=``), in any namespace, refers to a registry entry; bare
    names are ad-hoc methods outside the registry. Completeness is
    namespace-gated: a namespace is only checked when the analyzed tree
    registers at least one of its methods, so analyzing a single file
    does not report the rest of the tree as missing.
    """

    rule_id = "PRO001"
    severity = Severity.ERROR
    description = ("handler registration out of sync with the repro.wire "
                   "registry (missing, duplicate, or unknown method)")

    def check_project(self, project: Project) -> Iterable[Finding]:
        by_method: Dict[str, List[RegisterSite]] = {}
        for site in project.register_sites:
            if "." not in site.method:
                continue  # ad-hoc methods bypass the registry
            by_method.setdefault(site.method, []).append(site)
            if site.method not in REGISTRY:
                yield self.finding(
                    site.path, site.node,
                    f"register of {site.method!r}, which has no "
                    f"MethodSpec in the repro.wire registry")
        for method, sites in sorted(by_method.items()):
            for extra in sites[1:]:
                yield self.finding(
                    extra.path, extra.node,
                    f"duplicate handler registration for {method!r} "
                    f"(first at {sites[0].path}:"
                    f"{sites[0].node.lineno})")
        namespaces_present = {
            _namespace(m) for m in by_method if m in REGISTRY}
        for method in sorted(REGISTRY):
            namespace = _namespace(method)
            if namespace not in namespaces_present:
                continue
            if method not in by_method:
                anchor = next(
                    site for site in project.register_sites
                    if _namespace(site.method) == namespace)
                yield self.finding(
                    anchor.path, anchor.node,
                    f"registered wire method {method!r} has no handler "
                    f"in the analyzed tree (namespace {namespace!r} is "
                    f"handled here)")
        for site in project.wire_call_sites:
            if "." in site.method and site.method not in REGISTRY:
                yield self.finding(
                    site.function.module.path, site.node,
                    f"{site.kind}() to {site.method!r}, which has no "
                    f"MethodSpec in the repro.wire registry")


@rule
class HandlerReplyTypeRule(ProjectRule):
    """PRO002: handlers return the registered reply message type.

    The RPC layer type-checks replies at runtime (``_serve`` turns a
    mistyped result into a generic error response); this rule moves the
    check to analysis time by matching every ``return WireClass(...)``
    in a handler against the method's ``MethodSpec.response``.
    """

    rule_id = "PRO002"
    severity = Severity.ERROR
    description = ("handler returns a different wire message than the "
                   "registered reply type for its method")

    def check_project(self, project: Project) -> Iterable[Finding]:
        seen: Set[Tuple[str, str]] = set()
        for site in project.register_sites:
            spec = REGISTRY.get(site.method)
            handler = site.handler
            if spec is None or handler is None:
                continue
            if (site.method, handler.qualname) in seen:
                continue  # duplicate registration is PRO001's finding
            seen.add((site.method, handler.qualname))
            expected = spec.response.__name__
            for ret, returned in self._returned_classes(project, handler):
                if returned != expected:
                    yield self.finding(
                        handler.module.path, ret,
                        f"handler {handler.name!r} for {site.method!r} "
                        f"returns {returned}, but the registered reply "
                        f"is {expected}")

    def _returned_classes(
            self, project: Project, handler: FunctionInfo,
            depth: int = 0) -> Iterator[Tuple[ast.Return, str]]:
        """(return statement, wire class name) pairs, following
        ``return self._helper(...)`` one level deep."""
        for ret in handler.returns:
            value = ret.value
            if not isinstance(value, ast.Call):
                continue
            name = simple_name(value.func)
            if name in _WIRE_CLASS_NAMES:
                yield ret, name
            elif depth == 0:
                callee = project.resolve_call(handler, value)
                if callee is not None:
                    for _, inner in self._returned_classes(
                            project, callee, depth + 1):
                        yield ret, inner


@rule
class UnhandledRpcFailureRule(ProjectRule):
    """PRO003: registered-method call sites have a reachable
    RpcError/timeout handling path.

    An ``RpcNode.call`` to a wire method can always fail with
    ``RpcTimeout``; if neither the call site nor any caller on a path
    from a handler/daemon entry point catches it, the failure either
    kills a daemon or surfaces as a generic handler error — the
    hardened failure-handling contract requires an explicit decision at
    some level of the chain.
    """

    rule_id = "PRO003"
    severity = Severity.ERROR
    description = ("RPC call to a registered method with no reachable "
                   "RpcError/RpcTimeout handling on any caller path")
    required_path_parts = ("milana", "semel", "harness")

    def check_project(self, project: Project) -> Iterable[Finding]:
        roots = self.roots(project)
        unprotected: Dict[str, FunctionInfo] = {}  # qualname -> witness root
        witness: Dict[str, FunctionInfo] = {}
        queue: List[Tuple[FunctionInfo, FunctionInfo]] = \
            [(fn, fn) for fn in roots]
        while queue:
            fn, root = queue.pop(0)
            if fn.qualname in unprotected:
                continue
            unprotected[fn.qualname] = fn
            witness[fn.qualname] = root
            for site in fn.call_sites:
                if site.callee is None:
                    continue
                if not site.is_spawn and \
                        uncaught({"RpcTimeout"}, site.caught):
                    queue.append((site.callee, root))
                elif site.is_spawn:
                    # A spawned process starts a fresh unprotected chain.
                    queue.append((site.callee, root))
        for wire_site in project.wire_call_sites:
            if wire_site.kind != "call" or \
                    wire_site.method not in REGISTRY:
                continue
            fn = wire_site.function
            if fn.qualname not in unprotected:
                continue
            caught = self._caught_at(fn, wire_site.node)
            if not uncaught({"RpcTimeout"}, caught):
                continue
            root = witness[fn.qualname]
            via = "" if root is fn else \
                f" on the path from {root.name!r}"
            yield self.finding(
                fn.module.path, wire_site.node,
                f"call to {wire_site.method!r} in {fn.name!r} has no "
                f"reachable RpcError/RpcTimeout handling{via}; catch "
                f"RpcError here or on a caller")

    @staticmethod
    def _caught_at(fn: FunctionInfo, node: ast.Call) -> Set[str]:
        for site in fn.call_sites:
            if site.node is node:
                return site.caught
        return set()


@rule
class HandlerExceptionLeakRule(ProjectRule):
    """PRO004: handlers and daemons do not leak transport/quorum errors.

    ``_serve`` converts an ``AppError`` into a protocol-level rejection;
    anything else escaping a handler is counted as ``handler_errors``
    and flattened into an opaque failure — and an exception escaping a
    daemon's generator kills the daemon permanently. ``QuorumError`` is
    the classic leak: it is *not* an ``RpcError``, so ``except
    RpcError`` clauses on the path do not stop it.
    """

    rule_id = "PRO004"
    severity = Severity.ERROR
    description = ("transport/quorum exception can escape a wire handler "
                   "(opaque handler error) or a daemon (daemon death)")
    required_path_parts = ("milana", "semel", "harness")

    HANDLER_LEAKS = frozenset({"RpcError", "RpcTimeout", "QuorumError"})
    DAEMON_LEAKS = frozenset(
        {"RpcError", "RpcTimeout", "QuorumError", "AppError"})

    def check_project(self, project: Project) -> Iterable[Finding]:
        seen: Set[str] = set()
        for site in project.register_sites:
            handler = site.handler
            if handler is None or site.method not in REGISTRY:
                continue
            if handler.qualname in seen:
                continue
            seen.add(handler.qualname)
            leaks = sorted(
                project.transitive_raises(handler) & self.HANDLER_LEAKS)
            if leaks:
                yield self.finding(
                    handler.module.path, handler.node,
                    f"handler {handler.name!r} for {site.method!r} may "
                    f"leak {', '.join(leaks)} to the RPC layer (opaque "
                    f"handler_errors failure); convert to AppError or a "
                    f"protocol reply")
        for info in sorted(project.functions.values(),
                           key=lambda fn: fn.qualname):
            if not info.is_daemon or not info.is_generator or \
                    info.qualname in seen:
                continue
            if not self.applies_to(info.module.path):
                continue
            leaks = sorted(
                project.transitive_raises(info) & self.DAEMON_LEAKS)
            if leaks:
                yield self.finding(
                    info.module.path, info.node,
                    f"daemon {info.name!r} dies permanently if "
                    f"{', '.join(leaks)} escapes its loop; catch it and "
                    f"retry on the next round")


@rule
class InterproceduralTaintRule(ProjectRule):
    """DET101: wall-clock/random values flowing into state via helpers.

    DET001/DET002 flag direct calls; this rule follows the value: a
    function whose return derives from a wall-clock or ``random`` read
    taints every call site, and storing a tainted value into ``self.*``
    state (or feeding it to ``sim.timeout``-style scheduling) breaks
    determinism one function removed from the offending call.
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
