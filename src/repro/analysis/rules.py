"""The built-in simlint rules (see docs/ANALYSIS.md for the catalogue).

The simulation rule (SIM001) keeps simulated time honest; the protocol
rule (RPC001) keeps the failure detection budget the correctness
arguments rely on visible; FLT001 and PAR001 keep fault state and sweep
parallelism on their sanctioned paths; API001 keeps the public surface
coherent; SUP001 audits suppressions. Wall-clock, random, unordered and
environment reads that reach a result are caught by the fingerprint,
digest and nemesis gates, which is why no DET0xx module rule remains.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from .engine import ModuleContext, Rule, rule, simple_name
from .findings import Finding, Severity

__all__ = [
    "BlockingInProcessRule",
    "RpcTimeoutRule",
    "CrashStatePokeRule",
    "ParallelismHygieneRule",
    "DunderAllRule",
    "UnusedSuppressionRule",
]


@rule
class BlockingInProcessRule(Rule):
    """SIM001: sim processes must not block the host.

    A generator driven by the simulator advances *simulated* time via
    yielded events; calling ``time.sleep`` or doing host I/O inside one
    stalls the real process without advancing the simulation and ties
    results to host speed.
    """

    rule_id = "SIM001"
    severity = Severity.ERROR
    description = ("blocking host call (time.sleep/open/socket) inside a "
                   "sim process generator; yield a sim timeout/event")

    BLOCKING_CALLS = frozenset({
        "time.sleep", "input", "open", "os.system", "os.popen",
        "subprocess.run", "subprocess.call", "subprocess.check_call",
        "subprocess.check_output", "subprocess.Popen",
        "socket.socket", "socket.create_connection",
        "urllib.request.urlopen",
        "requests.get", "requests.post", "requests.request",
    })

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for func in ctx.generator_functions():
            for node in ctx.own_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                qualname = ctx.qualname(node.func)
                if qualname in self.BLOCKING_CALLS:
                    yield self.finding(
                        ctx.path, node,
                        f"sim process {func.name!r} calls {qualname}(), "
                        f"which blocks the host; use sim.timeout(...) or "
                        f"move the I/O outside the simulation")


def _node_like(receiver: ast.AST) -> bool:
    """An ``RpcNode``-looking receiver: ``node``, ``*_node``, or an
    attribute of either name (``self.node``)."""
    name = simple_name(receiver)
    return name is not None and (name == "node" or name.endswith("_node"))


@rule
class RpcTimeoutRule(Rule):
    """RPC001: every RPC send-site carries an explicit timeout policy.

    ``RpcNode.call`` has a default timeout, but protocol code relying on
    it hides the failure-detection budget that CTP/recovery correctness
    arguments depend on — the timeout is part of the protocol, so it
    must be visible at the call site.
    """

    rule_id = "RPC001"
    severity = Severity.ERROR
    description = ("RPC call without an explicit timeout=; the failure "
                   "detection budget must be visible at the send-site")

    #: call(dst, method, payload, timeout, retries) — timeout is the
    #: 4th positional parameter.
    TIMEOUT_POSITION = 4

    def _is_rpc_call(self, node: ast.Call) -> bool:
        func = node.func
        return (isinstance(func, ast.Attribute) and func.attr == "call"
                and _node_like(func.value))

    def _has_timeout(self, node: ast.Call, position: int) -> bool:
        if len(node.args) >= position:
            return True
        for keyword in node.keywords:
            if keyword.arg == "timeout" or keyword.arg is None:  # **kwargs
                return True
        return False

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for call, qualname in ctx.calls():
            if self._is_rpc_call(call):
                if not self._has_timeout(call, self.TIMEOUT_POSITION):
                    yield self.finding(
                        ctx.path, call,
                        "RpcNode.call without an explicit timeout=; state "
                        "the failure-detection budget at the send-site")
            elif qualname is not None and \
                    qualname.split(".")[-1] == "replicate_to_backups":
                # replicate_to_backups(node, backups, method, payload,
                #                      need_acks, timeout)
                if not self._has_timeout(call, 6):
                    yield self.finding(
                        ctx.path, call,
                        "replicate_to_backups without an explicit "
                        "timeout=; quorum waits need a visible budget")


@rule
class CrashStatePokeRule(Rule):
    """FLT001: fault state is mutated through the fault API only.

    Poking ``network._crashed`` directly bypasses the fault-injection
    surface: the nemesis timeline never records it, so
    ``can_communicate`` and the post-heal audit see state that no plan
    made, and in-flight delivery checks can disagree with the poked
    set. Use ``Network.crash`` / ``Network.recover`` /
    ``Network.is_crashed`` (or a ``NemesisPlan``), and
    ``Network.install_faults`` for link faults.
    """

    rule_id = "FLT001"
    severity = Severity.ERROR
    description = ("direct access to Network._crashed outside the network "
                   "module; use crash()/recover()/is_crashed() or a "
                   "NemesisPlan")
    excluded_path_suffixes = ("net/network.py",)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and \
                    node.attr == "_crashed":
                yield self.finding(
                    ctx.path, node,
                    "touching Network._crashed bypasses the fault API "
                    "(absent from the nemesis timeline, so "
                    "can_communicate audits disagree with the poked "
                    "set); go through crash()/recover()/is_crashed() "
                    "or a NemesisPlan")


@rule
class ParallelismHygieneRule(Rule):
    """PAR001: sweep parallelism is spawn-context only.

    The sweep runner (``repro.sweep``) fans experiment cells across
    worker processes. Forked workers inherit a snapshot of the parent
    interpreter — module caches, seeded RNG objects, open descriptors —
    so a forked cell can observe state a fresh serial run never would,
    and determinism quietly dies. Spawn re-imports everything from
    source, which also means module-level mutable state in sweep
    modules is rebuilt per worker and silently diverges from the
    parent's copy; keep such modules state-free.
    """

    rule_id = "PAR001"
    severity = Severity.ERROR
    description = ("parallelism hygiene: os.fork/fork start-method/"
                   "ProcessPoolExecutor without mp_context, or "
                   "module-level mutable state in a sweep module; "
                   "spawn-context only")

    FORK_CALLS = frozenset({"os.fork", "os.forkpty", "pty.fork"})
    START_METHOD_CALLS = frozenset({
        "multiprocessing.get_context",
        "multiprocessing.set_start_method",
    })
    MUTABLE_CONSTRUCTORS = frozenset({
        "list", "dict", "set", "bytearray", "defaultdict",
        "OrderedDict", "Counter", "deque",
    })

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for call, qualname in ctx.calls():
            if qualname is None:
                continue
            if qualname in self.FORK_CALLS:
                yield self.finding(
                    ctx.path, call,
                    f"call to {qualname}() duplicates parent interpreter "
                    f"state into the child; sweep workers must be "
                    f"spawn-context processes")
            elif qualname in self.START_METHOD_CALLS:
                method = call.args[0] if call.args else None
                if method is None:
                    yield self.finding(
                        ctx.path, call,
                        f"{qualname}() without a start method defaults "
                        f"to the platform method (fork on Linux); pass "
                        f"'spawn' explicitly")
                elif not (isinstance(method, ast.Constant)
                          and method.value == "spawn"):
                    yield self.finding(
                        ctx.path, call,
                        f"{qualname}() start method must be the literal "
                        f"'spawn'; fork duplicates parent state and "
                        f"other values are platform-dependent")
            elif qualname.split(".")[-1] == "ProcessPoolExecutor":
                if not any(kw.arg == "mp_context"
                           for kw in call.keywords):
                    yield self.finding(
                        ctx.path, call,
                        "ProcessPoolExecutor without mp_context= uses "
                        "the platform default start method (fork on "
                        "Linux); pass mp_context=get_context('spawn')")
        yield from self._module_state_findings(ctx)

    def _module_state_findings(self, ctx: ModuleContext) -> Iterable[Finding]:
        normalized = ctx.path.replace("\\", "/")
        if "/sweep/" not in f"/{normalized}":
            return
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            else:
                continue
            if not self._is_mutable_container(value):
                continue
            # Dunder assignments (__all__ & co.) are declarative module
            # metadata, never mutated at runtime.
            plain = [target.id for target in targets
                     if isinstance(target, ast.Name)
                     and not (target.id.startswith("__")
                              and target.id.endswith("__"))]
            if not plain and any(isinstance(t, ast.Name) for t in targets):
                continue
            names = ", ".join(plain) or "<target>"
            yield self.finding(
                ctx.path, node,
                f"module-level mutable container {names!r} in a sweep "
                f"module; spawn workers re-import this module, so "
                f"mutations diverge silently between parent and "
                f"workers — build it inside a function instead")

    def _is_mutable_container(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self.MUTABLE_CONSTRUCTORS)


@rule
class DunderAllRule(Rule):
    """API001: ``__all__`` matches what the module actually defines.

    A stale ``__all__`` breaks ``from module import *`` and misleads
    both readers and the API docs about the supported surface.
    """

    rule_id = "API001"
    severity = Severity.WARNING
    description = "__all__ inconsistent with module-level definitions"

    def _top_level_bindings(self, body: List[ast.stmt]) -> Set[str]:
        names: Set[str] = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    names.update(self._target_names(target))
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        names.add(alias.asname or alias.name)
            elif isinstance(node, (ast.If, ast.Try)):
                names.update(self._top_level_bindings(node.body))
                for handler in getattr(node, "handlers", []):
                    names.update(self._top_level_bindings(handler.body))
                names.update(self._top_level_bindings(
                    getattr(node, "orelse", [])))
                names.update(self._top_level_bindings(
                    getattr(node, "finalbody", [])))
        return names

    @staticmethod
    def _target_names(target: ast.AST) -> Set[str]:
        if isinstance(target, ast.Name):
            return {target.id}
        if isinstance(target, (ast.Tuple, ast.List)):
            names: Set[str] = set()
            for element in target.elts:
                names.update(DunderAllRule._target_names(element))
            return names
        return set()

    def _declared_all(self, ctx: ModuleContext
                      ) -> Tuple[Optional[ast.stmt], Optional[List[str]]]:
        for node in ctx.tree.body:
            value = None
            if isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in node.targets):
                    value = node.value
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and \
                        node.target.id == "__all__":
                    value = node.value
            if value is None:
                continue
            if isinstance(value, (ast.List, ast.Tuple)):
                names = []
                for element in value.elts:
                    if isinstance(element, ast.Constant) and \
                            isinstance(element.value, str):
                        names.append(element.value)
                    else:
                        return node, None  # dynamic __all__: skip module
                return node, names
            return node, None
        return None, None

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        node, declared = self._declared_all(ctx)
        if node is None or declared is None:
            return
        bindings = self._top_level_bindings(ctx.tree.body)
        for name in declared:
            if name not in bindings:
                yield self.finding(
                    ctx.path, node,
                    f"__all__ lists {name!r} but the module never "
                    f"defines it")
        declared_set = set(declared)
        for child in ctx.tree.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if not child.name.startswith("_") and \
                        child.name not in declared_set:
                    yield self.finding(
                        ctx.path, child,
                        f"public {child.name!r} is missing from __all__; "
                        f"export it or rename it with a leading underscore")


@rule
class UnusedSuppressionRule(Rule):
    """SUP001: a suppression comment that suppresses nothing.

    After every other rule has run, any ``# simlint: disable[=RULE]``
    comment whose rules never fired is dead weight: either the offending
    code was fixed (delete the comment) or the comment was misspelled
    and is silently masking nothing. References to unknown rule ids are
    always reported; "never fired" is only judged on full runs (no
    ``--select``/``--ignore``), since a filtered run cannot tell.

    The driver runs this rule in a dedicated pass (it needs the usage
    marks left behind by the others); ``check`` is intentionally empty.
    To silence it, use an explicit file-level
    ``# simlint: disable-file=SUP001``.
    """

    rule_id = "SUP001"
    severity = Severity.WARNING
    description = ("suppression comment that suppresses nothing "
                   "(rule never fires there, or unknown rule id)")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def unused_findings(self, ctx: ModuleContext, known_ids: Set[str],
                        filtering: bool) -> Iterable[Finding]:
        from .engine import _ALL
        if self.rule_id in ctx.file_suppressions:
            return
        for sup in ctx.suppressions:
            if self.rule_id in sup.rules:
                continue  # meta-suppressions are never self-reported
            where = ("anywhere in this file" if sup.kind == "file"
                     else "on this line")
            for rid in sorted(sup.rules):
                if rid == _ALL:
                    continue
                if rid not in known_ids:
                    yield self.finding(
                        ctx.path, sup,
                        f"suppression references unknown rule id "
                        f"{rid!r}")
                elif not filtering and rid not in sup.used_rules:
                    yield self.finding(
                        ctx.path, sup,
                        f"useless suppression: {rid} does not fire "
                        f"{where}; remove the comment")
            if _ALL in sup.rules and not filtering and not sup.used_rules:
                yield self.finding(
                    ctx.path, sup,
                    f"useless blanket suppression: no rule fires "
                    f"{where}; remove the comment")
