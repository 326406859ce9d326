"""Whole-program model for interprocedural simlint rules.

A :class:`Project` spans every successfully parsed module of one
analyzer invocation and layers three artifacts over the per-module
:class:`~repro.analysis.engine.ModuleContext`:

* a **symbol table** — every class and (possibly nested) function,
  keyed by a dotted qualified name derived from the file path
  (``src/repro/milana/server.py`` → ``repro.milana.server``);
* a **call graph** — :meth:`Project.resolve_call` maps a call site to
  a project function where possible: ``self.method(...)`` through the
  class hierarchy, bare names through module scope and the module's
  import map (absolute and relative ``from``-imports), dotted names
  through import aliases, and, as a last resort, a unique-bare-name
  match across the whole project;
* **effect summaries** per function — whether it is a generator, its
  call sites (a ``register("<wire method>", handler)`` call makes the
  handler a root), and its return statements.

Rules built on top (see :mod:`repro.analysis.iprules`) either consume
the summaries directly (DET101's return-taint fixpoint) or replay a
root through :class:`InlineWalker`, which flattens the
transitive call chain into one ordered event stream with local-variable
tag propagation — the machinery that makes a check-then-act race
visible even when the check and the act live in different functions.
The project owns the one walker and keeps each root's stream
(:meth:`Project.events`), so every rule replaying a root shares one
walk of it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from ..wire.registry import REGISTRY
from .engine import ModuleContext, simple_name

__all__ = [
    "Project",
    "ClassInfo",
    "FunctionInfo",
    "InlineWalker",
    "Event",
]

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


def _literal_method(call: ast.Call) -> Optional[str]:
    """The string literal a ``register`` call names as its method, given
    positionally or as ``method=``; None for any other expression."""
    expr: Optional[ast.expr] = None
    if call.args:
        expr = call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "method":
            expr = keyword.value
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


class FunctionInfo:
    """One function or method, with its effect summary."""

    def __init__(self, module: ModuleContext, node: ast.FunctionDef,
                 class_info: Optional["ClassInfo"],
                 enclosing: Optional["FunctionInfo"]) -> None:
        self.module = module
        self.node = node
        self.name = node.name
        self.class_info = class_info
        #: Enclosing function for nested defs (else None).
        self.enclosing = enclosing
        owner = class_info.qualname if class_info else module.module_name
        if enclosing is not None:
            owner = enclosing.qualname
        self.qualname = f"{owner}.{node.name}" if owner else node.name
        self.params: List[str] = [a.arg for a in node.args.args]
        # -- summaries, filled by Project._summarize -----------------------
        #: A yield at the function's own level (a sim process).
        self.is_generator: bool = False
        #: Own-level call expressions, in source order; rules resolve
        #: the ones they need with :meth:`Project.resolve_call`.
        self.calls: List[ast.Call] = []
        self.returns: List[ast.Return] = []

    @property
    def is_daemon(self) -> bool:
        return self.name.endswith("_daemon") or self.name.endswith("_loop")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.qualname}>"


class ClassInfo:
    """One class definition with its direct methods and base names."""

    def __init__(self, module: ModuleContext, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.name = node.name
        self.qualname = f"{module.module_name}.{node.name}" \
            if module.module_name else node.name
        #: Base-class expressions as dotted strings (import-resolved).
        self.base_names: List[str] = []
        for base in node.bases:
            dotted = module.qualname(base)
            if dotted:
                self.base_names.append(dotted)
        self.methods: Dict[str, FunctionInfo] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassInfo {self.qualname}>"


def _is_spawn(call: ast.Call) -> bool:
    """``*.process(...)`` / ``*.start(...)``: its generator arguments
    run as a separate process, so nothing is inlined."""
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr in ("process", "start"))


def _is_noop_yield_from(node: ast.AST) -> bool:
    """``yield from ()`` — the generator-protocol no-op, not a
    suspension point."""
    return (isinstance(node, ast.YieldFrom)
            and isinstance(node.value, (ast.Tuple, ast.List))
            and not node.value.elts)


class Project:
    """Symbol table + call graph + summaries over one analyzed tree."""

    def __init__(self, contexts: Iterable[ModuleContext]) -> None:
        self.modules: Dict[str, ModuleContext] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        for ctx in contexts:
            self._collect_module(ctx)
        for info in list(self.functions.values()):
            self._summarize(info)
        #: Coroutine entry points in qualname order: registered wire
        #: handlers plus daemon/loop generators (rules narrow them to
        #: their scope with ``Rule.applies_to``).
        self.roots = self._entry_points()
        #: DET101's taint set, computed once by ``iprules.tainted_functions``.
        self.tainted: Optional[Set[str]] = None
        self._walker = InlineWalker(self)
        self._events: Dict[str, List[Event]] = {}

    # -- collection --------------------------------------------------------

    def _collect_module(self, ctx: ModuleContext) -> None:
        self.modules[ctx.path] = ctx

        def visit(node: ast.AST, class_info: Optional[ClassInfo],
                  enclosing: Optional[FunctionInfo]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    info = ClassInfo(ctx, child)
                    self.classes[info.qualname] = info
                    self.classes_by_name.setdefault(
                        info.name, []).append(info)
                    visit(child, info, None)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    if not isinstance(child, ast.FunctionDef):
                        continue  # async defs don't occur in this tree
                    fn = FunctionInfo(ctx, child,
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
            local = self.functions.get(
                f"{caller.module.module_name}.{name}")
            if local is not None and local.class_info is None:
                return local
            # absolute, then relative from-import
            for imports in (ctx.from_imports, ctx.relative_imports):
                resolved = self.functions.get(imports.get(name, ""))
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
                "get", "put", "call", "send", "run", "process", "start",
                "register", "timeout", "event"):
            return candidates[0]
        return None

    # -- summaries ---------------------------------------------------------

    def _summarize(self, info: FunctionInfo) -> None:
        for node in ModuleContext.own_nodes(info.node):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                info.is_generator = True
            elif isinstance(node, ast.Return):
                info.returns.append(node)
            elif isinstance(node, ast.Call):
                info.calls.append(node)

    def _entry_points(self) -> List[FunctionInfo]:
        """Handlers ``node.register("<wire method>", handler)`` names,
        plus daemon/loop generators."""
        roots: Dict[str, FunctionInfo] = {}
        for info in self.functions.values():
            for call in info.calls:
                func = call.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr == "register" and len(call.args) > 1
                        and _literal_method(call) in REGISTRY):
                    continue
                handler = self._handler_for(info, call.args[1])
                if handler is not None:
                    roots[handler.qualname] = handler
        for info in self.functions.values():
            if info.is_daemon and info.is_generator:
                roots.setdefault(info.qualname, info)
        return [roots[qualname] for qualname in sorted(roots)]

    def events(self, root: FunctionInfo) -> List[Event]:
        """``root``'s flattened event stream, walked once per project."""
        events = self._events.get(root.qualname)
        if events is None:
            events = self._events[root.qualname] = self._walker.walk(root)
        return events

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


# -- flattened event-stream walker ----------------------------------------


class Event:
    """One event in a flattened handler execution: kind is one of
    ``guard_read`` (a state read in a condition), ``write``,
    ``suspend``, plus the durability kinds
    ``wal_append`` (detail = ``sync``/``nosync``/``config`` fsync
    discipline), ``durable_write`` (a storage-backend mutation the WAL
    must cover), and ``reply`` (a ``return WireClass(...)``; detail =
    the class name, node = the constructor call). ``lineno`` and
    ``col_offset`` are the node's, so an event anchors a finding
    exactly as its node would."""

    __slots__ = ("kind", "family", "function", "lineno", "col_offset",
                 "in_finally", "lock_depth", "detail", "node")

    def __init__(self, kind: str, family: Optional[str],
                 function: FunctionInfo, node: ast.AST,
                 in_finally: bool = False, lock_depth: int = 0,
                 detail: Optional[str] = None) -> None:
        self.kind = kind
        self.family = family
        self.function = function
        self.lineno = getattr(node, "lineno", 1)
        self.col_offset = getattr(node, "col_offset", 0)
        self.in_finally = in_finally
        self.lock_depth = lock_depth
        self.detail = detail
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Event {self.kind} {self.family} "
                f"{self.function.name}:{self.lineno}>")


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
    * Writes to in-flight coalescing maps (``LOCK_ATTR_PREFIXES``)
      acquire and release a lock; every event carries the lock depth and
      whether it sits in a ``finally`` block, which is what exempts such
      writes from race reporting.
    """

    MAX_DEPTH = 5

    def __init__(self, project: Project) -> None:
        self.project = project

    def walk(self, root: FunctionInfo) -> List[Event]:
        self.events: List[Event] = []
        self.lock_depth = 0
        self.finally_depth = 0
        self._stack: List[str] = []
        self._walk_function(root, {})
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
                else:
                    self.lock_depth += 1
            return
        self._emit("write", family, frame, target)

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
        if guard and family is not None and \
                not self._is_lock_family(family):
            if isinstance(getattr(expr, "ctx", ast.Load()), ast.Load):
                self._emit("guard_read", family, frame, expr)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._walk_expression(child, frame, guard=guard)

    def _walk_call(self, call: ast.Call, frame: _Frame,
                   guard: bool = False) -> None:
        # Arguments / receiver first (evaluation order approximation).
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Call) and _is_spawn(call):
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
                    elif func.attr == "setdefault":
                        self.lock_depth += 1
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
                elif guard:
                    self._emit("guard_read", receiver_family, frame, call)
            elif isinstance(func.value, ast.Name) and \
                    func.value.id == "self":
                pass  # self.method(...): handled via inlining below
            else:
                self._walk_expression(func.value, frame, guard=guard)
        # Inline resolved project calls.
        if _is_spawn(call):
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
        name = simple_name(value.func)
        if name and name[:1].isupper():
            self._emit("reply", None, frame, value, detail=name)

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
