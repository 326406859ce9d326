"""Whole-program model for interprocedural simlint rules.

A :class:`Project` spans every successfully parsed module of one
analyzer invocation and layers three artifacts over the per-module
:class:`~repro.analysis.engine.ModuleContext`:

* a **symbol table** — every class and (possibly nested) function,
  keyed by a dotted qualified name derived from the file path
  (``src/repro/milana/server.py`` → ``repro.milana.server``);
* a **call graph** — each call site resolved to a project function
  where possible: ``self.method(...)`` through the class hierarchy,
  bare names through module scope / ``from``-imports (absolute and
  relative), dotted names through import aliases, and, as a last
  resort, a unique-bare-name match across the whole project.
  ``sim.process(fn(...))`` spawn sites are kept separate from plain
  call edges because exceptions do not propagate across a spawn;
* **effect summaries** per function — own-level suspension points,
  raised exception classes (a ``event.fail(Exc(...))`` inside a nested
  worker counts against the enclosing function, which is where the
  failure surfaces when the event is yielded on), wire-method
  registration and call sites, and return-expression shapes.

Rules built on top (see :mod:`repro.analysis.iprules`) either consume
the summaries directly (protocol conformance, exception-leak fixpoints)
or replay a handler through :class:`InlineWalker`, which flattens the
transitive call chain into one ordered event stream with local-variable
tag propagation — the machinery that makes a check-then-act race
visible even when the check and the act live in different functions.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .engine import ModuleContext

__all__ = [
    "Project",
    "ClassInfo",
    "FunctionInfo",
    "CallSite",
    "RegisterSite",
    "WireCallSite",
    "InlineWalker",
    "Event",
    "module_name_for_path",
    "EXCEPTION_BASES",
    "exception_matches",
    "uncaught",
]

#: Known exception hierarchy (class name -> direct base name) for the
#: classes protocol rules reason about. ``AppError`` deliberately
#: subclasses ``RpcError`` in ``repro.net.rpc``; ``QuorumError`` is a
#: plain ``Exception`` — which is exactly why it slips past
#: ``except RpcError`` clauses.
EXCEPTION_BASES: Dict[str, str] = {
    "RpcTimeout": "RpcError",
    "AppError": "RpcError",
    "RpcError": "Exception",
    "QuorumError": "Exception",
    "TransactionAborted": "Exception",
    "Exception": "BaseException",
}

#: Method names that mutate the object they are called on, for
#: state-write detection on ``self.<attr>.<method>(...)`` receivers.
MUTATOR_METHODS = frozenset({
    # dict / set / list
    "add", "discard", "remove", "pop", "popitem", "clear", "update",
    "setdefault", "append", "extend", "insert",
    # repro-specific state tables
    "mark_prepared", "mark_committed", "clear_prepared", "observe_read",
    "report", "set_watermark", "record",
})

#: ``self.<attr>`` families treated as locks rather than shared state:
#: the in-flight coalescing maps guard a critical section, so writes
#: made while one is held (or to the map itself) are not races.
LOCK_ATTR_PREFIXES = ("_inflight",)

#: Append entry points of the write-ahead log, for ``wal_append`` event
#: emission (DUR rules). The generic names only match wal-ish receiver
#: families (``self.wal.append(...)``, a ``wal`` local) so that plain
#: ``list.append`` calls never register as log writes.
WAL_APPEND_METHODS = frozenset({
    "append", "append_put", "append_delete", "append_txn",
    "bootstrap", "bootstrap_put",
})

#: Storage-backend methods that mutate durable (WAL-covered) state, for
#: ``durable_write`` event emission. ``set_watermark`` is deliberately
#: absent: the GC watermark is volatile by design and rebuilt from
#: client reports after a restart.
DURABLE_STORE_METHODS = frozenset({"put", "delete", "bulk_load"})


def _is_wal_family(family: str) -> bool:
    return "wal" in family.lower()


def _append_sync_mode(call: ast.Call) -> str:
    """Classify a WAL append call's fsync discipline from its ``sync``
    keyword: ``"sync"`` (True or omitted — ack-after-fsync),
    ``"nosync"`` (literal False — ack-before-fsync), or ``"config"``
    (a ``self.wal.config.sync_*`` flag or other expression, honest by
    default)."""
    for kw in call.keywords:
        if kw.arg == "sync":
            if isinstance(kw.value, ast.Constant):
                return "sync" if kw.value.value else "nosync"
            return "config"
    return "sync"


def module_name_for_path(path: str) -> str:
    """Dotted module name derived from a file path.

    ``src/repro/milana/server.py`` → ``repro.milana.server``;
    ``pkg/__init__.py`` → ``pkg``. Leading ``src`` components are
    dropped so paths under a conventional src-layout resolve to the
    import name. The mapping only needs to be *consistent* within one
    analyzed tree — relative imports are resolved against it.
    """
    parts = list(PurePath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    while parts and parts[0] in ("src", ".", ".."):
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def exception_matches(raised: str, caught: Set[str]) -> bool:
    """True when an exception class named ``raised`` is covered by an
    ``except`` clause catching any of ``caught`` (bare ``except:`` is
    represented by ``BaseException``)."""
    name: Optional[str] = raised
    seen: Set[str] = set()
    while name is not None and name not in seen:
        if name in caught:
            return True
        seen.add(name)
        name = EXCEPTION_BASES.get(name)
    return False


def uncaught(raised: Iterable[str], caught: Set[str]) -> Set[str]:
    """The subset of ``raised`` that escapes an except-set ``caught``."""
    return {name for name in raised if not exception_matches(name, caught)}


class CallSite:
    """One call expression inside a function, with resolution info."""

    def __init__(self, node: ast.Call, callee: Optional["FunctionInfo"],
                 caught: Set[str], is_spawn: bool) -> None:
        self.node = node
        self.callee = callee
        #: Exception class names caught by ``try`` blocks enclosing the
        #: call *within the same function* (bare except → BaseException).
        self.caught = caught
        #: True when the call is the argument of ``sim.process(...)`` —
        #: a spawned process, whose failures do not propagate here.
        self.is_spawn = is_spawn


class RegisterSite:
    """One ``node.register("<method>", handler)`` call."""

    def __init__(self, method: str, node: ast.Call, path: str,
                 handler: Optional["FunctionInfo"]) -> None:
        self.method = method
        self.node = node
        self.path = path
        self.handler = handler


class WireCallSite:
    """One RPC send-site with a literal dotted method name."""

    def __init__(self, method: str, node: ast.Call, kind: str,
                 function: "FunctionInfo") -> None:
        self.method = method
        self.node = node
        #: "call", "send_oneway", or "replicate_to_backups".
        self.kind = kind
        self.function = function


class FunctionInfo:
    """One function or method, with its effect summary."""

    def __init__(self, module: ModuleContext, module_name: str,
                 node: ast.FunctionDef,
                 class_info: Optional["ClassInfo"],
                 enclosing: Optional["FunctionInfo"]) -> None:
        self.module = module
        self.module_name = module_name
        self.node = node
        self.name = node.name
        self.class_info = class_info
        #: Enclosing function for nested defs (else None).
        self.enclosing = enclosing
        owner = class_info.qualname if class_info else module_name
        if enclosing is not None:
            owner = enclosing.qualname
        self.qualname = f"{owner}.{node.name}" if owner else node.name
        self.params: List[str] = [a.arg for a in node.args.args]
        # -- summaries, filled by Project._summarize -----------------------
        #: Own-level suspension points (yield/yield-from lines), with the
        #: no-op ``yield from ()`` generator-protocol idiom excluded.
        self.suspension_lines: List[int] = []
        self.is_generator: bool = False
        #: Exception class names raised at this function's own level,
        #: including ``event.fail(Exc(...))`` in nested workers (the
        #: failure surfaces where the event is yielded on — here).
        self.own_raises: Set[str] = set()
        self.call_sites: List[CallSite] = []
        self.returns: List[ast.Return] = []
        self._transitive_raises: Optional[Set[str]] = None

    @property
    def is_daemon(self) -> bool:
        return self.name.endswith("_daemon") or self.name.endswith("_loop")

    def path_has_part(self, parts: Sequence[str]) -> bool:
        file_parts = PurePath(self.module.path).parts
        return any(part in file_parts for part in parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.qualname}>"


class ClassInfo:
    """One class definition with its direct methods and base names."""

    def __init__(self, module: ModuleContext, module_name: str,
                 node: ast.ClassDef) -> None:
        self.module = module
        self.module_name = module_name
        self.node = node
        self.name = node.name
        self.qualname = f"{module_name}.{node.name}" if module_name \
            else node.name
        #: Base-class expressions as dotted strings (import-resolved).
        self.base_names: List[str] = []
        for base in node.bases:
            dotted = module.qualname(base)
            if dotted:
                self.base_names.append(dotted)
        self.methods: Dict[str, FunctionInfo] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassInfo {self.qualname}>"


def _ordered_own_statements(node: ast.AST) -> Iterator[ast.AST]:
    """Children of ``node`` in source order, not descending into nested
    defs/classes/lambdas (unlike ``ast.walk``, order is deterministic
    and matches the source)."""
    for child in ast.iter_child_nodes(node):
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        yield from _ordered_own_statements(child)


def _is_noop_yield_from(node: ast.AST) -> bool:
    """``yield from ()`` — the generator-protocol no-op, not a
    suspension point."""
    return (isinstance(node, ast.YieldFrom)
            and isinstance(node.value, (ast.Tuple, ast.List))
            and not node.value.elts)


def _spawn_argument_calls(func: ast.AST) -> Set[int]:
    """ids of Call nodes that appear as arguments of ``*.process(...)``
    (spawned generators: separate process, no exception propagation)."""
    spawned: Set[int] = set()
    for node in _ordered_own_statements(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process"):
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    spawned.add(id(arg))
    return spawned


def _caught_map(func: ast.AST) -> Dict[int, Set[str]]:
    """node id -> exception names caught by enclosing try blocks.

    Only ``try`` *bodies* are protected; handlers/else/finally are not
    covered by their own clauses. Nested defs are not entered.
    """
    caught: Dict[int, Set[str]] = {}

    def names_for(handler: ast.ExceptHandler) -> Set[str]:
        if handler.type is None:
            return {"BaseException"}
        types = handler.type.elts \
            if isinstance(handler.type, ast.Tuple) else [handler.type]
        names: Set[str] = set()
        for expr in types:
            if isinstance(expr, ast.Attribute):
                names.add(expr.attr)
            elif isinstance(expr, ast.Name):
                names.add(expr.id)
        return names

    def walk(node: ast.AST, active: Set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Try):
                handler_names: Set[str] = set()
                for handler in child.handlers:
                    handler_names |= names_for(handler)
                for stmt in child.body:
                    caught[id(stmt)] = active | handler_names
                    walk(stmt, active | handler_names)
                for handler in child.handlers:
                    for stmt in handler.body:
                        caught[id(stmt)] = set(active)
                        walk(stmt, active)
                for stmt in child.orelse + child.finalbody:
                    caught[id(stmt)] = set(active)
                    walk(stmt, active)
            else:
                caught[id(child)] = set(active)
                walk(child, active)

    walk(func, set())
    return caught


class Project:
    """Symbol table + call graph + summaries over one analyzed tree."""

    def __init__(self, contexts: Iterable[ModuleContext]) -> None:
        self.modules: Dict[str, ModuleContext] = {}
        self.module_names: Dict[str, str] = {}  # path -> dotted name
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.register_sites: List[RegisterSite] = []
        self.wire_call_sites: List[WireCallSite] = []
        for ctx in contexts:
            self._collect_module(ctx)
        for info in list(self.functions.values()):
            self._summarize(info)
        self._collect_protocol_sites()

    # -- collection --------------------------------------------------------

    def _collect_module(self, ctx: ModuleContext) -> None:
        module_name = module_name_for_path(ctx.path)
        self.modules[ctx.path] = ctx
        self.module_names[ctx.path] = module_name

        def visit(node: ast.AST, class_info: Optional[ClassInfo],
                  enclosing: Optional[FunctionInfo]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    info = ClassInfo(ctx, module_name, child)
                    self.classes[info.qualname] = info
                    self.classes_by_name.setdefault(
                        info.name, []).append(info)
                    visit(child, info, None)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    if not isinstance(child, ast.FunctionDef):
                        continue  # async defs don't occur in this tree
                    fn = FunctionInfo(ctx, module_name, child,
                                      class_info if enclosing is None
                                      else None, enclosing)
                    self.functions[fn.qualname] = fn
                    self.functions_by_name.setdefault(
                        fn.name, []).append(fn)
                    if class_info is not None and enclosing is None:
                        class_info.methods[fn.name] = fn
                    visit(child, None, fn)
                else:
                    visit(child, class_info, enclosing)

        visit(ctx.tree, None, None)

    # -- name resolution ---------------------------------------------------

    def _resolve_relative_import(self, ctx: ModuleContext,
                                 level: int, module: Optional[str],
                                 name: str) -> Optional[FunctionInfo]:
        """``from .validation import validate`` inside repro.milana.server
        → repro.milana.validation.validate."""
        package = module_name_for_path(ctx.path).split(".")[:-1]
        if level > len(package):
            return None
        base = package[: len(package) - (level - 1)]
        target = ".".join(base + (module.split(".") if module else []))
        return self.functions.get(f"{target}.{name}")

    def _unique_by_name(self, name: str) -> Optional[FunctionInfo]:
        candidates = self.functions_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_class(self, dotted: str) -> Optional[ClassInfo]:
        """A class by absolute qualname, module-qualified suffix, or
        unique bare name."""
        if dotted in self.classes:
            return self.classes[dotted]
        bare = dotted.split(".")[-1]
        candidates = self.classes_by_name.get(bare, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def mro(self, class_info: ClassInfo) -> List[ClassInfo]:
        """Linearized in-project ancestry (self first, DFS over bases)."""
        result: List[ClassInfo] = []
        seen: Set[str] = set()

        def add(info: ClassInfo) -> None:
            if info.qualname in seen:
                return
            seen.add(info.qualname)
            result.append(info)
            for base_name in info.base_names:
                base = self.resolve_class(base_name)
                if base is not None:
                    add(base)

        add(class_info)
        return result

    def resolve_method(self, class_info: ClassInfo,
                       name: str) -> Optional[FunctionInfo]:
        for ancestor in self.mro(class_info):
            if name in ancestor.methods:
                return ancestor.methods[name]
        return None

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> Optional[FunctionInfo]:
        """The project function a call resolves to, or None."""
        func = call.func
        # self.method(...)
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"):
            owner = caller.class_info
            if owner is None and caller.enclosing is not None:
                owner = caller.enclosing.class_info
            if owner is not None:
                resolved = self.resolve_method(owner, func.attr)
                if resolved is not None:
                    return resolved
            return self._unique_method(func.attr)
        ctx = caller.module
        if isinstance(func, ast.Name):
            name = func.id
            # same-module function
            local = self.functions.get(f"{caller.module_name}.{name}")
            if local is not None and local.class_info is None:
                return local
            # absolute from-import
            if name in ctx.from_imports:
                dotted = ctx.from_imports[name]
                resolved = self.functions.get(dotted)
                if resolved is not None:
                    return resolved
            # relative from-import
            resolved = self._resolve_from_relative(ctx, name)
            if resolved is not None:
                return resolved
            return self._unique_by_name(name)
        if isinstance(func, ast.Attribute):
            dotted = ctx.qualname(func)
            if dotted is not None and dotted in self.functions:
                return self.functions[dotted]
            # obj.method(...) on an unknown receiver: unique method name
            return self._unique_method(func.attr)
        return None

    def _unique_method(self, name: str) -> Optional[FunctionInfo]:
        """Unique-name fallback, restricted to uncommon names so that
        e.g. ``.get(...)`` on a dict never resolves to a method."""
        candidates = [fn for fn in self.functions_by_name.get(name, [])]
        if len(candidates) == 1 and name not in (
                "get", "put", "call", "send", "run", "process", "register",
                "timeout", "event"):
            return candidates[0]
        return None

    def _resolve_from_relative(self, ctx: ModuleContext,
                               name: str) -> Optional[FunctionInfo]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return self._resolve_relative_import(
                            ctx, node.level, node.module, alias.name)
        return None

    # -- summaries ---------------------------------------------------------

    def _summarize(self, info: FunctionInfo) -> None:
        func = info.node
        spawned = _spawn_argument_calls(func)
        caught = _caught_map(func)
        for node in _ordered_own_statements(func):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                info.is_generator = True
                if not _is_noop_yield_from(node):
                    info.suspension_lines.append(node.lineno)
            elif isinstance(node, ast.Raise):
                name = self._exception_name(node.exc)
                if name:
                    info.own_raises.add(name)
            elif isinstance(node, ast.Return):
                info.returns.append(node)
            elif isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "fail" and node.args
                        and isinstance(node.args[0], ast.Call)):
                    # event.fail(Exc(...)): surfaces at the yield site.
                    name = self._exception_name(node.args[0])
                    target = info.enclosing or info
                    if name:
                        target.own_raises.add(name)
                info.call_sites.append(CallSite(
                    node, None, caught.get(id(node), set()),
                    id(node) in spawned))
        # Fold nested workers' fail-raises upward (done above via
        # ``target``); resolve callees now that all functions exist.
        for site in info.call_sites:
            site.callee = self.resolve_call(info, site.node)

    @staticmethod
    def _exception_name(expr: Optional[ast.AST]) -> Optional[str]:
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute):
            return expr.attr
        return None

    def _collect_protocol_sites(self) -> None:
        for info in self.functions.values():
            for site in info.call_sites:
                call = site.node
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr == "register" and call.args:
                    method = call.args[0]
                    if isinstance(method, ast.Constant) and \
                            isinstance(method.value, str):
                        handler = None
                        if len(call.args) > 1:
                            handler = self._handler_for(info, call.args[1])
                        self.register_sites.append(RegisterSite(
                            method.value, call, info.module.path, handler))
                elif func.attr in ("call", "send_oneway"):
                    if len(call.args) >= 2 and \
                            isinstance(call.args[1], ast.Constant) and \
                            isinstance(call.args[1].value, str):
                        self.wire_call_sites.append(WireCallSite(
                            call.args[1].value, call, func.attr, info))

    def _handler_for(self, registrar: FunctionInfo,
                     expr: ast.AST) -> Optional[FunctionInfo]:
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and registrar.class_info is not None):
            return self.resolve_method(registrar.class_info, expr.attr)
        if isinstance(expr, ast.Name):
            return self._unique_by_name(expr.id)
        return None

    # -- exception propagation --------------------------------------------

    def transitive_raises(self, info: FunctionInfo) -> Set[str]:
        """Exception names that may escape ``info``: own raises plus
        callees' escapes not caught at the call site. Spawned processes
        are excluded (their failures surface in the spawned process)."""
        if info._transitive_raises is not None:
            return info._transitive_raises
        # Fixpoint over the (possibly cyclic) call graph.
        order: List[FunctionInfo] = []
        seen: Set[str] = set()

        def collect(fn: FunctionInfo) -> None:
            if fn.qualname in seen:
                return
            seen.add(fn.qualname)
            for site in fn.call_sites:
                if site.callee is not None and not site.is_spawn:
                    collect(site.callee)
            order.append(fn)

        collect(info)
        results: Dict[str, Set[str]] = {
            fn.qualname: set(fn.own_raises) for fn in order}
        changed = True
        while changed:
            changed = False
            for fn in order:
                for site in fn.call_sites:
                    if site.callee is None or site.is_spawn:
                        continue
                    known = results.get(site.callee.qualname)
                    if known is None:
                        # Callee already finalized by an earlier query.
                        known = site.callee._transitive_raises or set()
                    escaped = uncaught(known, site.caught)
                    if not escaped <= results[fn.qualname]:
                        results[fn.qualname] |= escaped
                        changed = True
        for fn in order:
            fn._transitive_raises = results[fn.qualname]
        return results[info.qualname]


# -- flattened event-stream walker ----------------------------------------


class Event:
    """One event in a flattened handler execution: kind is one of
    ``guard_read``, ``read``, ``write``, ``suspend``, ``validate``,
    ``record``, ``acquire``, ``release``, plus the durability kinds
    ``wal_append`` (detail = ``sync``/``nosync``/``config`` fsync
    discipline), ``durable_write`` (a storage-backend mutation the WAL
    must cover), and ``reply`` (a ``return WireClass(...)``; detail =
    the class name, node = the constructor call)."""

    __slots__ = ("kind", "family", "function", "line", "col",
                 "in_finally", "lock_depth", "detail", "node")

    def __init__(self, kind: str, family: Optional[str],
                 function: FunctionInfo, node: ast.AST,
                 in_finally: bool = False, lock_depth: int = 0,
                 detail: Optional[str] = None) -> None:
        self.kind = kind
        self.family = family
        self.function = function
        self.line = getattr(node, "lineno", 1)
        self.col = getattr(node, "col_offset", 0)
        self.in_finally = in_finally
        self.lock_depth = lock_depth
        self.detail = detail
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Event {self.kind} {self.family} "
                f"{self.function.name}:{self.line}>")


class _Frame:
    """Per-function state during inlining: local-variable tags mapping a
    name to the ``self.<attr>`` family its value derives from."""

    def __init__(self, info: FunctionInfo, tags: Dict[str, str]) -> None:
        self.info = info
        self.tags = tags


class InlineWalker:
    """Flatten a root function's transitive call chain into one ordered
    event stream.

    * ``self.<helper>(...)`` and module-function calls that resolve in
      the project are inlined (depth- and cycle-limited); spawned
      generators are not (separate process).
    * Local variables assigned from ``self.<attr>`` expressions are
      *tagged* with that attribute family; tags flow through iteration,
      comprehensions, and into callee parameters, so ``record.status``
      still reads/writes the ``txn_table`` family three calls deep.
    * Branch bodies that end in ``return``/``raise``/``continue``/
      ``break`` have their state changes rolled back — the linear
      continuation models the fall-through path, not the exited one.
    * Writes to in-flight coalescing maps (``LOCK_ATTR_PREFIXES``) are
      lock acquire/release events; writes under a held lock or inside a
      ``finally`` block are exempt from race reporting and are marked
      on the emitted event instead.
    """

    MAX_DEPTH = 5

    def __init__(self, project: Project) -> None:
        self.project = project

    def walk(self, root: FunctionInfo) -> List[Event]:
        self.events: List[Event] = []
        self.lock_depth = 0
        self.finally_depth = 0
        self._stack: List[str] = []
        initial_tags = {}
        self._walk_function(root, initial_tags)
        return self.events

    # -- helpers -----------------------------------------------------------

    def _emit(self, kind: str, family: Optional[str],
              frame: _Frame, node: ast.AST,
              detail: Optional[str] = None) -> None:
        self.events.append(Event(
            kind, family, frame.info, node,
            in_finally=self.finally_depth > 0,
            lock_depth=self.lock_depth,
            detail=detail))

    def _is_lock_family(self, family: str) -> bool:
        return family.startswith(LOCK_ATTR_PREFIXES)

    def _walk_function(self, info: FunctionInfo,
                       tags: Dict[str, str]) -> None:
        if info.qualname in self._stack or \
                len(self._stack) >= self.MAX_DEPTH:
            return
        self._stack.append(info.qualname)
        frame = _Frame(info, tags)
        try:
            self._walk_block(info.node.body, frame)
        finally:
            self._stack.pop()

    # -- families ----------------------------------------------------------

    def _families_in(self, expr: ast.AST, frame: _Frame) -> List[str]:
        """Every state family an expression reads (``self.<attr>`` or a
        tagged local, possibly through attribute/subscript chains)."""
        families: List[str] = []
        for node in ast.walk(expr):
            family = self._family_of(node, frame)
            if family is not None:
                families.append(family)
        return families

    def _family_of(self, node: ast.AST,
                   frame: _Frame) -> Optional[str]:
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self":
            return node.attr
        if isinstance(node, ast.Name):
            return frame.tags.get(node.id)
        return None

    # -- statement walk ----------------------------------------------------

    def _walk_block(self, statements: List[ast.stmt],
                    frame: _Frame) -> None:
        for stmt in statements:
            self._walk_statement(stmt, frame)

    @staticmethod
    def _block_exits(statements: List[ast.stmt]) -> bool:
        return bool(statements) and isinstance(
            statements[-1], (ast.Return, ast.Raise, ast.Continue,
                             ast.Break))

    def _walk_branch(self, statements: List[ast.stmt],
                     frame: _Frame) -> None:
        """Walk a conditional body; roll back its state effects when the
        body exits the linear flow (the fall-through never saw them)."""
        saved_tags = dict(frame.tags)
        saved_lock = self.lock_depth
        mark = len(self.events)
        self._walk_block(statements, frame)
        if self._block_exits(statements):
            frame.tags.clear()
            frame.tags.update(saved_tags)
            self.lock_depth = saved_lock
            # Detections already fired inside the branch stay reported;
            # only *state* (events considered by later detections) is
            # rolled back. We mark rolled-back events as inert.
            for event in self.events[mark:]:
                if event.kind in ("guard_read", "suspend"):
                    event.kind = f"dead_{event.kind}"

    def _walk_statement(self, stmt: ast.stmt, frame: _Frame) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.If):
            self._walk_expression(stmt.test, frame, guard=True)
            self._walk_branch(stmt.body, frame)
            self._walk_branch(stmt.orelse, frame)
            return
        if isinstance(stmt, (ast.While,)):
            self._walk_expression(stmt.test, frame, guard=True)
            self._walk_block(stmt.body, frame)
            self._walk_block(stmt.orelse, frame)
            return
        if isinstance(stmt, ast.For):
            self._walk_expression(stmt.iter, frame)
            self._tag_assign(stmt.target, stmt.iter, frame)
            self._walk_block(stmt.body, frame)
            self._walk_block(stmt.orelse, frame)
            return
        if isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, frame)
            for handler in stmt.handlers:
                self._walk_branch(handler.body, frame)
            self._walk_block(stmt.orelse, frame)
            self.finally_depth += 1
            try:
                self._walk_block(stmt.finalbody, frame)
            finally:
                self.finally_depth -= 1
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._walk_expression(item.context_expr, frame)
            self._walk_block(stmt.body, frame)
            return
        if isinstance(stmt, ast.Assign):
            self._walk_expression(stmt.value, frame)
            for target in stmt.targets:
                self._handle_write_target(target, frame)
                self._tag_assign(target, stmt.value, frame)
            return
        if isinstance(stmt, ast.AugAssign):
            self._walk_expression(stmt.value, frame)
            self._handle_write_target(stmt.target, frame)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._walk_expression(stmt.value, frame)
                self._handle_write_target(stmt.target, frame)
                self._tag_assign(stmt.target, stmt.value, frame)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._handle_write_target(target, frame)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._walk_expression(stmt.value, frame)
                self._emit_reply(stmt.value, frame)
            return
        if isinstance(stmt, ast.Expr):
            self._walk_expression(stmt.value, frame)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._walk_expression(child, frame)
            elif isinstance(child, ast.stmt):
                self._walk_statement(child, frame)

    # -- writes ------------------------------------------------------------

    def _write_family(self, target: ast.AST,
                      frame: _Frame) -> Optional[str]:
        """The family a store-target mutates: ``self.X = / self.X[k] = /
        tagged.attr = / tagged[k] = / del self.X[k]``."""
        if isinstance(target, ast.Attribute):
            base = self._family_of(target.value, frame)
            if base is not None:
                return base
            # self.X = ...  (direct attribute store on self)
            if isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                return target.attr
            return None
        if isinstance(target, ast.Subscript):
            return self._family_of(target.value, frame) or (
                self._write_family(target.value, frame))
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                family = self._write_family(element, frame)
                if family is not None:
                    return family
        return None

    def _handle_write_target(self, target: ast.AST,
                             frame: _Frame) -> None:
        family = self._write_family(target, frame)
        if family is None:
            return
        if self._is_lock_family(family):
            # Subscript store on a lock map = acquire; ``del`` (a
            # Subscript target with Del context) = release.
            if isinstance(target, ast.Subscript):
                if isinstance(target.ctx, ast.Del):
                    self.lock_depth = max(0, self.lock_depth - 1)
                    self._emit("release", family, frame, target)
                else:
                    self.lock_depth += 1
                    self._emit("acquire", family, frame, target)
            return
        self._emit("write", family, frame, target)
        if family == "txn_table" and isinstance(target, ast.Subscript):
            # Storing a record in the transaction table records a
            # validation outcome (ATM001's "record" event).
            self._emit("record", family, frame, target)

    # -- expressions -------------------------------------------------------

    def _walk_expression(self, expr: ast.AST, frame: _Frame,
                         guard: bool = False) -> None:
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            if expr.value is not None:
                self._walk_expression(expr.value, frame, guard=False)
            if not _is_noop_yield_from(expr):
                self._emit("suspend", None, frame, expr)
            return
        if isinstance(expr, ast.Call):
            self._walk_call(expr, frame, guard=guard)
            return
        if isinstance(expr, ast.IfExp):
            self._walk_expression(expr.test, frame, guard=True)
            self._walk_expression(expr.body, frame, guard=guard)
            self._walk_expression(expr.orelse, frame, guard=guard)
            return
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for gen in expr.generators:
                self._walk_expression(gen.iter, frame, guard=guard)
                self._tag_assign(gen.target, gen.iter, frame)
                for cond in gen.ifs:
                    self._walk_expression(cond, frame, guard=True)
            if isinstance(expr, ast.DictComp):
                self._walk_expression(expr.key, frame, guard=guard)
                self._walk_expression(expr.value, frame, guard=guard)
            else:
                self._walk_expression(expr.elt, frame, guard=guard)
            return
        family = self._family_of(expr, frame)
        if family is not None and not self._is_lock_family(family):
            if isinstance(getattr(expr, "ctx", ast.Load()), ast.Load):
                self._emit("guard_read" if guard else "read",
                           family, frame, expr)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._walk_expression(child, frame, guard=guard)

    def _walk_call(self, call: ast.Call, frame: _Frame,
                   guard: bool = False) -> None:
        # Arguments / receiver first (evaluation order approximation).
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Call) and self._is_spawn(call):
                # Spawned generator: its body runs elsewhere; still walk
                # the argument expressions for reads.
                family = self._wal_append_family(arg, frame)
                if family is not None:
                    # Fire-and-forget log write: the spawning process
                    # never waits out the fsync, so for ack-ordering
                    # purposes this is ack-before-fsync regardless of
                    # the spawned generator's own sync flag.
                    self._emit("wal_append", family, frame, arg,
                               detail="nosync")
                for sub in ast.iter_child_nodes(arg):
                    if isinstance(sub, ast.expr):
                        self._walk_expression(sub, frame)
                continue
            self._walk_expression(arg, frame, guard=guard)
        func = call.func
        # validate(...) event for ATM001 (same semantics as TXN001).
        callee_name = None
        if isinstance(func, ast.Name):
            callee_name = func.id
        elif isinstance(func, ast.Attribute):
            callee_name = func.attr
        if callee_name and callee_name.endswith("validate"):
            self._emit("validate", None, frame, call)
        # Mutator / read on a state receiver: self.X.m(...) or tagged.m(...)
        if isinstance(func, ast.Attribute):
            receiver_family = self._family_of(func.value, frame)
            if receiver_family is None and \
                    isinstance(func.value, ast.Subscript):
                receiver_family = self._family_of(func.value.value, frame)
            if receiver_family is not None:
                if self._is_lock_family(receiver_family):
                    if func.attr in ("pop", "discard", "remove", "clear"):
                        self.lock_depth = max(0, self.lock_depth - 1)
                        self._emit("release", receiver_family, frame, call)
                    elif func.attr in ("setdefault",):
                        self.lock_depth += 1
                        self._emit("acquire", receiver_family, frame, call)
                    # plain .get() on a lock map: not a state read
                elif func.attr in WAL_APPEND_METHODS and \
                        _is_wal_family(receiver_family):
                    self._emit("wal_append", receiver_family, frame, call,
                               detail=_append_sync_mode(call))
                elif func.attr in DURABLE_STORE_METHODS and not guard:
                    self._emit("durable_write", receiver_family, frame,
                               call)
                elif func.attr in MUTATOR_METHODS:
                    self._emit("write", receiver_family, frame, call)
                    if func.attr in ("mark_prepared", "mark_committed"):
                        self._emit("record", receiver_family, frame, call)
                else:
                    self._emit("guard_read" if guard else "read",
                               receiver_family, frame, call)
            elif isinstance(func.value, ast.Name) and \
                    func.value.id == "self":
                pass  # self.method(...): handled via inlining below
            else:
                self._walk_expression(func.value, frame, guard=guard)
        # txn_table subscript store is handled by assignment targets;
        # ``record`` events for subscript stores:
        # (emitted in _handle_write_target callers via family name)
        # Inline resolved project calls.
        if self._is_spawn_wrapper(call):
            return
        callee = self.project.resolve_call(frame.info, call)
        if callee is not None and self._should_inline(frame.info, callee):
            tags: Dict[str, str] = {}
            params = list(callee.params)
            if params and params[0] == "self":
                params = params[1:]
            for param, arg in zip(params, call.args):
                families = self._families_in(arg, frame)
                if families:
                    tags[param] = families[0]
            self._walk_function(callee, tags)

    def _wal_append_family(self, call: ast.Call,
                           frame: _Frame) -> Optional[str]:
        """The wal-ish receiver family of a WAL append call, else None."""
        func = call.func
        if not isinstance(func, ast.Attribute) or \
                func.attr not in WAL_APPEND_METHODS:
            return None
        family = self._family_of(func.value, frame)
        if family is not None and _is_wal_family(family):
            return family
        return None

    def _emit_reply(self, value: ast.expr, frame: _Frame) -> None:
        """A ``return SomeClass(...)`` constructs a reply-shaped value;
        emit it so durability rules can segment handler paths at their
        acks. Rules filter on the class name (wire replies only)."""
        if not isinstance(value, ast.Call):
            return
        func = value.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name and name[:1].isupper():
            self._emit("reply", None, frame, value, detail=name)

    @staticmethod
    def _is_spawn(call: ast.Call) -> bool:
        return (isinstance(call.func, ast.Attribute)
                and call.func.attr == "process")

    def _is_spawn_wrapper(self, call: ast.Call) -> bool:
        return self._is_spawn(call)

    def _should_inline(self, caller: FunctionInfo,
                       callee: FunctionInfo) -> bool:
        # Inline self-methods and plain functions; never inline methods
        # of *other* classes resolved via receiver attributes — their
        # ``self`` is a different object, so their attribute families
        # would alias the caller's.
        if callee.class_info is None:
            return True
        caller_class = caller.class_info
        if caller_class is None and caller.enclosing is not None:
            caller_class = caller.enclosing.class_info
        if caller_class is None:
            return False
        return callee.class_info.qualname in {
            info.qualname for info in self.project.mro(caller_class)}

    # -- tagging -----------------------------------------------------------

    def _tag_assign(self, target: ast.AST, value: ast.AST,
                    frame: _Frame) -> None:
        families = self._families_in(value, frame)
        if not families:
            self._untag(target, frame)
            return
        family = families[0]
        for name in self._target_name_list(target):
            frame.tags[name] = family

    def _untag(self, target: ast.AST, frame: _Frame) -> None:
        for name in self._target_name_list(target):
            frame.tags.pop(name, None)

    @staticmethod
    def _target_name_list(target: ast.AST) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names: List[str] = []
            for element in target.elts:
                names.extend(InlineWalker._target_name_list(element))
            return names
        return []
