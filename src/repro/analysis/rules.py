"""The built-in module rules (see docs/ANALYSIS.md for the catalogue).

SIM001 keeps simulated time honest and PAR001 keeps sweep parallelism
on its spawn-only path. Wall-clock, random, unordered and environment
reads that reach a result are caught by the fingerprint, digest and
nemesis gates, which is why no DET0xx module rule remains; the RPC
timeout, the crashed set and ``__all__`` are kept honest by the API and
by tier-1 tests (docs/ANALYSIS.md "Retired rules").
"""

from __future__ import annotations

import ast
from typing import Iterable

from .engine import ModuleContext, Rule, rule
from .findings import Finding, Severity

__all__ = [
    "BlockingInProcessRule",
    "ParallelismHygieneRule",
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
