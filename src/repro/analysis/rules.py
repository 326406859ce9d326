"""The built-in simlint rules (see docs/ANALYSIS.md for the catalogue).

Determinism rules (DET*) protect the guarantee that a fixed seed
reproduces the paper's numbers exactly; simulation rules (SIM*) keep
simulated time honest; protocol rules (RPC*, TXN*) enforce the failure
handling the reproduction's correctness arguments rely on; API001 keeps
the public surface coherent.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .engine import ModuleContext, Rule, rule
from .findings import Finding, Severity

__all__ = [
    "WallClockRule",
    "DirectRandomRule",
    "UnorderedIterationRule",
    "EnvironmentReadRule",
    "BlockingInProcessRule",
    "RpcTimeoutRule",
    "WirePayloadRule",
    "YieldAtomicityRule",
    "CrashStatePokeRule",
    "ParallelismHygieneRule",
    "DunderAllRule",
    "UnusedSuppressionRule",
    "rule_catalogue",
]


@rule
class WallClockRule(Rule):
    """DET001: no wall-clock reads inside the reproduction.

    Simulated components must take time from ``Simulator.now`` / their
    ``Clock``; a host-clock read couples results to the machine running
    them and breaks run-to-run reproducibility.
    """

    rule_id = "DET001"
    severity = Severity.ERROR
    description = ("wall-clock read (time.time/perf_counter/datetime.now); "
                   "use Simulator.now or a repro.clocks clock")

    WALL_CLOCK_CALLS = frozenset({
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for call, qualname in ctx.calls():
            if qualname in self.WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, call,
                    f"call to {qualname}() reads the host wall clock; "
                    f"simulated code must use Simulator.now or a clock model")


@rule
class DirectRandomRule(Rule):
    """DET002: all randomness flows through ``SeededRng`` substreams.

    A bare ``random.random()`` draws from interpreter-global state, so
    any new caller perturbs every existing consumer's sequence. The one
    sanctioned wrapper is ``repro.sim.rng``.
    """

    rule_id = "DET002"
    severity = Severity.ERROR
    description = ("direct use of the random module; draw from a "
                   "SeededRng substream instead")
    excluded_path_suffixes = ("sim/rng.py",)

    RANDOM_MODULES = ("random", "numpy.random")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.RANDOM_MODULES or \
                            alias.name.startswith("numpy.random."):
                        yield self.finding(
                            ctx, node,
                            f"import of {alias.name!r}; use "
                            f"repro.sim.rng.SeededRng substreams")
            elif isinstance(node, ast.ImportFrom):
                if node.module in self.RANDOM_MODULES:
                    yield self.finding(
                        ctx, node,
                        f"import from {node.module!r}; use "
                        f"repro.sim.rng.SeededRng substreams")
        for call, qualname in ctx.calls():
            if qualname is None:
                continue
            root = qualname.split(".")[0]
            if root == "random" or qualname.startswith("numpy.random."):
                yield self.finding(
                    ctx, call,
                    f"call to {qualname}() uses global random state; "
                    f"draw from a SeededRng substream")


@rule
class UnorderedIterationRule(Rule):
    """DET003: no iteration over unordered collections.

    ``set`` iteration order depends on ``PYTHONHASHSEED``; feeding it
    into event scheduling, sharding, or replication fan-out reorders
    events between runs. Directory listings have filesystem order.
    Wrap the iterable in ``sorted(...)``.
    """

    rule_id = "DET003"
    severity = Severity.ERROR
    description = ("iteration over an unordered set/directory listing; "
                   "wrap in sorted(...)")

    SET_METHODS = frozenset({
        "union", "intersection", "difference", "symmetric_difference",
    })
    UNORDERED_CALLS = frozenset({
        "set", "frozenset", "os.listdir", "glob.glob", "glob.iglob",
        "os.scandir",
    })

    def _unordered_reason(self, ctx: ModuleContext,
                          node: ast.AST) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set expression"
        if isinstance(node, ast.Call):
            qualname = ctx.qualname(node.func)
            if qualname in self.UNORDERED_CALLS:
                return f"{qualname}(...)"
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.SET_METHODS):
                return f".{node.func.attr}(...)"
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "iterdir"):
                return ".iterdir()"
        return None

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        iter_sites: List[ast.AST] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                iter_sites.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iter_sites.extend(gen.iter for gen in node.generators)
        for site in iter_sites:
            reason = self._unordered_reason(ctx, site)
            if reason is not None:
                yield self.finding(
                    ctx, site,
                    f"iterating over {reason} has hash/filesystem-dependent "
                    f"order; wrap in sorted(...) to keep event order "
                    f"deterministic")


@rule
class EnvironmentReadRule(Rule):
    """DET004: no nondeterministic environment reads in sim paths.

    ``os.urandom`` / ``uuid.uuid4`` smuggle entropy past the seed;
    ``os.environ`` makes results depend on the invoking shell; the
    builtin ``hash`` of a str/bytes is salted per process
    (``PYTHONHASHSEED``). Ids must derive from seeded streams or
    counters, configuration from explicit parameters, key placement from
    ``repro.semel.sharding.stable_hash``.
    """

    rule_id = "DET004"
    severity = Severity.ERROR
    description = ("entropy/environment read (os.urandom, uuid.uuid4, "
                   "os.environ, builtin hash); derive from the seed or "
                   "explicit config")

    ENTROPY_CALLS = frozenset({
        "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
        "os.getenv", "hash",
    })

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for call, qualname in ctx.calls():
            if qualname is None:
                continue
            if qualname in self.ENTROPY_CALLS or \
                    qualname.startswith("secrets."):
                yield self.finding(
                    ctx, call,
                    f"call to {qualname}() is nondeterministic; derive "
                    f"values from the experiment seed or pass them "
                    f"explicitly")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and \
                    ctx.qualname(node) == "os.environ":
                yield self.finding(
                    ctx, node,
                    "reading os.environ makes results depend on the "
                    "invoking shell; take configuration as parameters")


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
                        ctx, node,
                        f"sim process {func.name!r} calls {qualname}(), "
                        f"which blocks the host; use sim.timeout(...) or "
                        f"move the I/O outside the simulation")


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
        if not isinstance(func, ast.Attribute) or func.attr != "call":
            return False
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return receiver.id == "node" or receiver.id.endswith("_node")
        if isinstance(receiver, ast.Attribute):
            return receiver.attr == "node" or receiver.attr.endswith("_node")
        return False

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
                        ctx, call,
                        "RpcNode.call without an explicit timeout=; state "
                        "the failure-detection budget at the send-site")
            elif qualname is not None and \
                    qualname.split(".")[-1] == "replicate_to_backups":
                # replicate_to_backups(node, backups, method, payload,
                #                      need_acks, timeout)
                if not self._has_timeout(call, 6):
                    yield self.finding(
                        ctx, call,
                        "replicate_to_backups without an explicit "
                        "timeout=; quorum waits need a visible budget")


@rule
class WirePayloadRule(Rule):
    """WIRE001: RPC payloads are typed ``repro.wire`` messages.

    A raw dict literal at a send-site bypasses the wire registry: no
    schema check at the sender, no ``wire_size`` accounting, and the
    receiving handler silently falls back to duck typing. Construct the
    registered message class for the method instead.
    """

    rule_id = "WIRE001"
    severity = Severity.ERROR
    description = ("raw dict literal as an RPC payload; construct the "
                   "registered repro.wire message class instead")

    #: attribute name -> 0-based position of the payload argument.
    PAYLOAD_POSITIONS = {
        "call": 2,
        "send_oneway": 2,
        "replicate_to_backups": 3,
    }

    def _node_like(self, receiver: ast.AST) -> bool:
        if isinstance(receiver, ast.Name):
            return receiver.id == "node" or receiver.id.endswith("_node")
        if isinstance(receiver, ast.Attribute):
            return receiver.attr == "node" or receiver.attr.endswith("_node")
        return False

    def _payload(self, call: ast.Call, attr: str) -> Optional[ast.AST]:
        for keyword in call.keywords:
            if keyword.arg == "payload":
                return keyword.value
        position = self.PAYLOAD_POSITIONS[attr]
        if len(call.args) > position:
            return call.args[position]
        return None

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for call, qualname in ctx.calls():
            func = call.func
            attr = None
            if isinstance(func, ast.Attribute) and \
                    func.attr in ("call", "send_oneway"):
                if self._node_like(func.value):
                    attr = func.attr
            elif qualname is not None and \
                    qualname.split(".")[-1] == "replicate_to_backups":
                attr = "replicate_to_backups"
            if attr is None:
                continue
            payload = self._payload(call, attr)
            if isinstance(payload, (ast.Dict, ast.DictComp)):
                yield self.finding(
                    ctx, payload,
                    f"dict literal passed as the {attr}() payload "
                    f"bypasses the typed wire protocol; build the "
                    f"registered repro.wire message for this method")


@rule
class YieldAtomicityRule(Rule):
    """TXN001: validation outcomes must be recorded before yielding.

    MILANA's Algorithm 1 checks and the transaction-table/prepared-mark
    updates that record its verdict must happen on the same side of any
    yield point: a yield in between lets a concurrent prepare interleave
    and both transactions validate against pre-update state (classic
    OCC time-of-check/time-of-use). Re-validating after the yield is
    the sanctioned escape hatch.
    """

    rule_id = "TXN001"
    severity = Severity.ERROR
    description = ("yield between validate(...) and recording its outcome "
                   "in the txn table / prepared marks")
    required_path_parts = ("milana",)
    counterpart = "SAN001"

    MUTATOR_METHODS = frozenset({"mark_prepared", "mark_committed"})

    def _validate_lines(self, ctx: ModuleContext,
                        func: ast.FunctionDef) -> List[int]:
        lines = []
        for node in ctx.own_nodes(func):
            if isinstance(node, ast.Call):
                qualname = ctx.qualname(node.func)
                if qualname and qualname.split(".")[-1].endswith("validate"):
                    lines.append(node.lineno)
        return lines

    def _mutation_nodes(self, ctx: ModuleContext,
                        func: ast.FunctionDef) -> List[ast.AST]:
        nodes: List[ast.AST] = []
        for node in ctx.own_nodes(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Attribute)
                            and target.value.attr == "txn_table"):
                        nodes.append(node)
            elif isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr in self.MUTATOR_METHODS):
                    nodes.append(node)
        return nodes

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for func in ctx.generator_functions():
            validates = self._validate_lines(ctx, func)
            if not validates:
                continue
            yields = sorted(node.lineno for node in ctx.own_nodes(func)
                            if isinstance(node, (ast.Yield, ast.YieldFrom)))
            for mutation in self._mutation_nodes(ctx, func):
                # A yield strictly between the last validate before the
                # mutation and the mutation itself, with no re-validate
                # after that yield, is a TOCTOU window.
                before = [v for v in validates if v < mutation.lineno]
                if not before:
                    continue
                last_validate = max(before)
                window = [y for y in yields
                          if last_validate < y < mutation.lineno]
                if window:
                    yield self.finding(
                        ctx, mutation,
                        f"{func.name!r} yields at line {window[0]} between "
                        f"validation (line {last_validate}) and recording "
                        f"its outcome; revalidate after the yield or move "
                        f"the mutation before it")


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
                    ctx, node,
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
                    ctx, call,
                    f"call to {qualname}() duplicates parent interpreter "
                    f"state into the child; sweep workers must be "
                    f"spawn-context processes")
            elif qualname in self.START_METHOD_CALLS:
                method = call.args[0] if call.args else None
                if method is None:
                    yield self.finding(
                        ctx, call,
                        f"{qualname}() without a start method defaults "
                        f"to the platform method (fork on Linux); pass "
                        f"'spawn' explicitly")
                elif not (isinstance(method, ast.Constant)
                          and method.value == "spawn"):
                    yield self.finding(
                        ctx, call,
                        f"{qualname}() start method must be the literal "
                        f"'spawn'; fork duplicates parent state and "
                        f"other values are platform-dependent")
            elif qualname.split(".")[-1] == "ProcessPoolExecutor":
                if not any(kw.arg == "mp_context"
                           for kw in call.keywords):
                    yield self.finding(
                        ctx, call,
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
                ctx, node,
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
                    ctx, node,
                    f"__all__ lists {name!r} but the module never "
                    f"defines it")
        declared_set = set(declared)
        for child in ctx.tree.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if not child.name.startswith("_") and \
                        child.name not in declared_set:
                    yield self.finding(
                        ctx, child,
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
            anchor = ast.Pass()
            anchor.lineno = sup.line
            anchor.col_offset = 0
            for rid in sorted(sup.rules):
                if rid == _ALL:
                    continue
                if rid not in known_ids:
                    yield self.finding(
                        ctx, anchor,
                        f"suppression references unknown rule id "
                        f"{rid!r}")
                elif not filtering and rid not in sup.used_rules:
                    yield self.finding(
                        ctx, anchor,
                        f"useless suppression: {rid} does not fire "
                        f"{where}; remove the comment")
            if _ALL in sup.rules and not filtering and not sup.used_rules:
                yield self.finding(
                    ctx, anchor,
                    f"useless blanket suppression: no rule fires "
                    f"{where}; remove the comment")


#: Rule metadata for --list-rules and docs generation.
def rule_catalogue() -> Dict[str, Tuple[str, str]]:
    """rule id -> (severity, one-line description)."""
    from .engine import all_rules
    return {rid: (r.severity, r.description)
            for rid, r in sorted(all_rules().items())}
