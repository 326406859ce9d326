"""Crash-consistency simlint rules (DUR family) for the WAL layer.

Every suspend point in a handler is a potential crash point: the
process is interrupt-killed there by :meth:`crash`, and only the WAL's
durable prefix survives into replay. These rules replay each handler's
flattened event stream (:class:`~.project.InlineWalker`) and check the
crash-ordering invariants the durability tests probe dynamically:

* **DUR001 — ack-before-fsync.** A reply that claims durability must
  be dominated by a ``wal.append(..., sync=True)``-or-configured-sync
  append; a ``sync=False`` append leaves a suspend window where a
  crash erases state the client was already told about. This is the
  static twin of the ``test_durability.py`` nemesis A/B pair (the
  lossy ``sync_*=False`` control loses acked writes; the durable
  default does not).
* **DUR003 — crash-unsafe cleanup.** ``finally`` blocks after a
  suspend run *after* :meth:`crash` replaced the volatile tables, so
  indexing them with bare ``del d[k]``/``d[k]`` raises KeyError into
  the interrupt path; ``.pop(k, None)`` is the sanctioned pattern.
* **DUR004 — nondeterministic WAL payloads.** A record field derived
  from a wall-clock/``random`` read (directly or through the DET101
  taint chain) makes replay reconstruct different state than the run
  that crashed.
* **DUR005 — append/replay registry cross-check.** Every record kind
  appended anywhere must have a matching arm in the replay/bootstrap
  dispatcher, mirroring the wire-registry conformance check: a kind
  with no arm is durably written and silently dropped on recovery.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..wire.registry import REGISTRY
from .engine import ModuleContext, ProjectRule, rule
from .findings import Finding, Severity
from .iprules import is_volatile_source, tainted_functions
from .project import WAL_APPEND_METHODS, Event, FunctionInfo, Project

__all__ = [
    "AckBeforeFsyncRule",
    "CrashUnsafeCleanupRule",
    "VolatileWalPayloadRule",
    "WalReplayRegistryRule",
]

#: Wire response class names — a ``return <one of these>(...)`` (or any
#: ``*Reply``/``Ack`` constructor) is the handler's acknowledgement.
_RESPONSE_CLASS_NAMES = frozenset(
    spec.response.__name__ for spec in REGISTRY.values())

#: ``self.<attr>`` write families that are durable state beyond the
#: storage backend itself. ``key_states`` is deliberately absent: it is
#: OCC metadata rebuilt from the replayed store and txn table, not
#: logged state.
_DURABLE_WRITE_FAMILIES = frozenset({"txn_table"})

#: Function names that host the replay/bootstrap dispatch arms DUR005
#: cross-checks appends against.
_REPLAY_FUNCTION_NAMES = frozenset({
    "replay_wal", "replay", "replay_log", "bootstrap_from_wal"})

#: The typed append helpers pin their record kind (repro.durability.wal).
_TYPED_APPEND_KINDS = {
    "append_put": "semel.put",
    "bootstrap_put": "semel.put",
    "append_delete": "semel.delete",
    "append_txn": "txn",
}

#: Reply field values that renounce durability: an ABORT vote or an
#: UNKNOWN/ABORTED status promises nothing about persisted state, so an
#: unsynced abort record behind it is safe (nothing acked is lost).
_NON_CLAIM_NAMES = frozenset({"UNKNOWN", "ABORTED"})


def _is_ack_name(name: str) -> bool:
    return (name in _RESPONSE_CLASS_NAMES or name.endswith("Reply")
            or name == "Ack")


def _claims_durability(node: ast.AST) -> bool:
    """False when the reply itself renounces durability (an ABORT vote,
    an UNKNOWN/ABORTED status, ``applied=False``)."""
    if not isinstance(node, ast.Call):
        return True
    for keyword in node.keywords:
        value = keyword.value
        if isinstance(value, ast.Constant) and value.value == "ABORT":
            return False
        if isinstance(value, ast.Name) and value.id in _NON_CLAIM_NAMES:
            return False
        if keyword.arg == "applied" and \
                isinstance(value, ast.Constant) and value.value is False:
            return False
    return True


def _is_tracked_mutation(event: Event) -> bool:
    """A mutation of state that must survive a crash: any storage-backend
    write, or a write to a durable ``self.<attr>`` family."""
    if event.kind == "durable_write":
        return True
    return event.kind == "write" and event.family in _DURABLE_WRITE_FAMILIES


def _absolute_name(ctx: ModuleContext, expr: ast.AST) -> Optional[str]:
    """The absolute dotted name a ``NAME`` or ``module.NAME`` expression
    refers to, through the module's import map; a name no import binds
    is the module's own."""
    if isinstance(expr, ast.Attribute):
        base = _absolute_name(ctx, expr.value)
        return f"{base}.{expr.attr}" if base else None
    if isinstance(expr, ast.Name):
        name = expr.id
        return (ctx.from_imports.get(name) or ctx.relative_imports.get(name)
                or ctx.import_aliases.get(name)
                or f"{ctx.module_name}.{name}")
    return None


def _mentions_wal(expr: ast.AST) -> bool:
    """Whether an append call's receiver expression names a WAL
    (``self.wal``, ``server.wal``, a ``wal`` local, ...)."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and "wal" in node.attr.lower():
            return True
        if isinstance(node, ast.Name) and "wal" in node.id.lower():
            return True
    return False


def _is_wal_append_call(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Attribute)
            and func.attr in WAL_APPEND_METHODS
            and _mentions_wal(func.value))


@rule
class AckBeforeFsyncRule(ProjectRule):
    """DUR001: a durability-claiming reply behind a background fsync.

    The handler mutates tracked durable state and acknowledges it, but
    the only WAL append on the path is ``sync=False`` — the entry is
    volatile until a background process fsyncs it, and an amnesia crash
    in the suspend window between the append and the ack (or during the
    ack itself) erases a write the client was told is durable. The
    dynamic witness is the nemesis A/B pair in ``test_durability.py``:
    the lossy ``sync_*=False`` control loses exactly these writes.
    """

    rule_id = "DUR001"
    severity = Severity.ERROR
    description = ("reply claims durability but the WAL append on the "
                   "path is sync=False; a crash in the suspend window "
                   "before the background fsync loses the acked write")
    required_path_parts = ("milana", "semel")
    counterpart = "test_durability.py nemesis A/B (durable vs lossy)"

    def check_events(self, root: FunctionInfo, events: List[Event]
                     ) -> Iterator[Tuple[Event, str]]:
        unsynced: Optional[Event] = None
        window: Optional[Event] = None
        wrote: Optional[Event] = None
        for event in events:
            if event.kind == "wal_append":
                if event.detail == "nosync":
                    unsynced = event
                    window = None
                else:
                    # A later sync/config append waits out its own
                    # fsync, and the earlier background fsync (same
                    # latency, scheduled earlier) completes no later
                    # — the debt is settled before any reply.
                    unsynced = None
                    window = None
            elif event.kind == "suspend" and unsynced is not None \
                    and window is None:
                # A ``yield from wal.append(..., sync=False)`` emits
                # its own suspend, but the sync=False generator never
                # actually yields — the first *real* crash window is
                # the next suspension after the append statement.
                if not (event.function is unsynced.function
                        and event.lineno == unsynced.lineno):
                    window = event
            elif _is_tracked_mutation(event):
                wrote = event
            elif event.kind == "reply" and event.detail is not None \
                    and _is_ack_name(event.detail):
                if unsynced is not None and wrote is not None and \
                        _claims_durability(event.node):
                    if window is not None:
                        where = (
                            f"a crash in the suspend window at "
                            f"{window.function.name!r} line "
                            f"{window.lineno} loses the acked write")
                    else:
                        where = ("the reply itself races the "
                                 "background fsync")
                    yield event, (
                        f"{root.name!r} replies "
                        f"{event.detail} claiming durability, "
                        f"but the WAL append at line "
                        f"{unsynced.lineno} is sync=False; "
                        f"{where} — fsync (sync=True or the "
                        f"configured sync_* flag) before "
                        f"acknowledging")
                unsynced = None
                window = None
                wrote = None


@rule
class CrashUnsafeCleanupRule(ProjectRule):
    """DUR003: post-suspend ``finally`` cleanup that can't survive crash.

    On a class with a :meth:`crash` method, a ``try`` body that
    suspends can be interrupt-killed mid-flight; by the time its
    ``finally`` runs, ``crash`` has already replaced the volatile
    tables, so the key being cleaned up may be gone. Bare ``del d[k]``,
    a bare ``d[k]`` read, or ``.pop(k)`` without a default raises
    KeyError into the interrupt path; ``.pop(k, None)`` is required.
    """

    rule_id = "DUR003"
    severity = Severity.ERROR
    description = ("finally-block cleanup after a suspend indexes "
                   "crash-wiped state without a default; use "
                   ".pop(key, None) so the crash-kill interrupt "
                   "survives the already-replaced table")
    required_path_parts = ("milana", "semel", "durability")
    counterpart = "DUR001"

    def check_project(self, project: Project) -> Iterable[Finding]:
        for qualname in sorted(project.classes):
            class_info = project.classes[qualname]
            if not self.applies_to(class_info.module.path):
                continue
            if project.resolve_method(class_info, "crash") is None:
                continue
            for name in sorted(class_info.methods):
                yield from self._check_method(class_info.methods[name])

    def _check_method(self, method: FunctionInfo) -> Iterator[Finding]:
        for node in ModuleContext.own_nodes(method.node):
            if isinstance(node, ast.Try) and \
                    self._suspends(node.body):
                for stmt in node.finalbody:
                    yield from self._check_cleanup(method, stmt)

    @staticmethod
    def _suspends(statements: List[ast.stmt]) -> bool:
        return any(
            isinstance(node, (ast.Yield, ast.YieldFrom))
            for stmt in statements
            for node in ModuleContext.own_nodes(stmt))

    def _check_cleanup(self, method: FunctionInfo,
                       stmt: ast.stmt) -> Iterator[Finding]:
        path = method.module.path
        for node in ast.walk(stmt):
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        yield self.finding(
                            path, node,
                            f"{method.name!r} cleans up with a bare "
                            f"'del' in a post-suspend finally block; a "
                            f"crash-kill interrupt lands here after the "
                            f"table was replaced and the key is gone — "
                            f"use .pop(key, None)")
            elif isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, ast.Load) and \
                    self._is_self_attr(node.value):
                yield self.finding(
                    path, node,
                    f"{method.name!r} indexes self state with a bare "
                    f"[] in a post-suspend finally block; after a "
                    f"crash-kill interrupt the wiped table raises "
                    f"KeyError — use .get/.pop with a default")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "pop" and \
                    len(node.args) == 1 and not node.keywords and \
                    not (isinstance(node.args[0], ast.Constant)
                         and isinstance(node.args[0].value, int)):
                yield self.finding(
                    path, node,
                    f"{method.name!r} calls .pop(key) without a "
                    f"default in a post-suspend finally block; after a "
                    f"crash-kill interrupt the wiped table raises "
                    f"KeyError — use .pop(key, None)")

    @staticmethod
    def _is_self_attr(expr: ast.AST) -> bool:
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        return isinstance(expr, ast.Name) and expr.id == "self"


@rule
class VolatileWalPayloadRule(ProjectRule):
    """DUR004: WAL payloads tainted by wall-clock/random reads.

    Replay reconstructs state from record payloads; a payload field
    derived from ``time.time()``/``random`` (directly, or through a
    helper the DET101 taint engine marks) differs between the run that
    crashed and any re-execution, so recovery diverges nondeterministically.
    """

    rule_id = "DUR004"
    severity = Severity.ERROR
    description = ("WAL record payload derives from a wall-clock/random "
                   "read; replay reconstructs different state than the "
                   "run that crashed")
    required_path_parts = ("milana", "semel", "durability")
    excluded_path_suffixes = ("sim/rng.py",)
    counterpart = "DET101"

    def check_project(self, project: Project) -> Iterable[Finding]:
        tainted = tainted_functions(project)
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            if not self.applies_to(info.module.path):
                continue
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call) and _is_wal_append_call(node):
                    yield from self._check_payload(
                        project, info, node, tainted)

    def _check_payload(self, project: Project, info: FunctionInfo,
                       call: ast.Call,
                       tainted: Set[str]) -> Iterator[Finding]:
        payload_args = list(call.args) + [
            keyword.value for keyword in call.keywords
            if keyword.arg != "sync"]
        for arg in payload_args:
            for sub in ast.walk(arg):
                if not isinstance(sub, ast.Call):
                    continue
                qualname = info.module.qualname(sub.func)
                if qualname is not None and is_volatile_source(qualname):
                    yield self.finding(
                        info.module.path, call,
                        f"{info.name!r} appends a WAL payload computed "
                        f"from {qualname}; replay would reconstruct "
                        f"different state — derive it from "
                        f"Simulator.now or a SeededRng substream")
                    return
                callee = project.resolve_call(info, sub)
                if callee is not None and callee.qualname in tainted:
                    yield self.finding(
                        info.module.path, call,
                        f"{info.name!r} appends a WAL payload from "
                        f"{callee.name!r}, which derives from a "
                        f"wall-clock/random read; replay would "
                        f"reconstruct different state — derive it from "
                        f"Simulator.now or a SeededRng substream")
                    return


@rule
class WalReplayRegistryRule(ProjectRule):
    """DUR005: every appended record kind must have a replay arm.

    Mirrors the wire-registry conformance check: the replay/bootstrap
    dispatcher (``replay_wal`` and friends) is the registry, and an
    append of a kind no arm matches is durably written and silently
    dropped on recovery. Dynamic kind expressions (a plain variable)
    are skipped — only literal kinds and named module constants are
    cross-checked, and only when a replay dispatcher is in the analyzed
    tree (a partial analysis must not indict kinds whose arms it simply
    didn't read).
    """

    rule_id = "DUR005"
    severity = Severity.ERROR
    description = ("WAL record kind is appended but no replay/bootstrap "
                   "arm handles it; recovery silently drops those "
                   "records")
    required_path_parts = ("milana", "semel", "durability")

    def check_project(self, project: Project) -> Iterable[Finding]:
        constants = self._string_constants(project)
        arms = self._replay_arms(project, constants)
        if not arms:
            return
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            if not self.applies_to(info.module.path):
                continue
            for node in ast.walk(info.node):
                if not (isinstance(node, ast.Call)
                        and _is_wal_append_call(node)):
                    continue
                kind = self._append_kind(node, info.module, constants)
                if kind is not None and kind not in arms:
                    yield self.finding(
                        info.module.path, node,
                        f"{info.name!r} appends WAL records of kind "
                        f"{kind!r} but no replay/bootstrap arm handles "
                        f"that kind; a crash-restart durably keeps and "
                        f"then silently drops them — add a "
                        f"{sorted(_REPLAY_FUNCTION_NAMES)[0]!r}-style "
                        f"dispatch arm")

    @staticmethod
    def _string_constants(project: Project) -> Dict[str, str]:
        """Module-level ``NAME = "literal"`` bindings by absolute name
        (``repro.durability.wal.SEMEL_PUT``), which a kind expression
        reaches through its module's import map."""
        values: Dict[str, str] = {}
        for ctx in project.modules.values():
            for stmt in ctx.tree.body:
                if isinstance(stmt, ast.Assign) \
                        and len(stmt.targets) == 1 \
                        and isinstance(stmt.targets[0], ast.Name) \
                        and isinstance(stmt.value, ast.Constant) \
                        and isinstance(stmt.value.value, str):
                    name = f"{ctx.module_name}.{stmt.targets[0].id}"
                    values[name] = stmt.value.value
        return values

    @classmethod
    def _replay_arms(cls, project: Project,
                     constants: Dict[str, str]) -> Set[str]:
        arms: Set[str] = set()
        for info in project.functions.values():
            if info.name not in _REPLAY_FUNCTION_NAMES:
                continue
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Compare):
                    continue
                sides = [node.left] + list(node.comparators)
                if not any(isinstance(side, ast.Attribute)
                           and side.attr == "kind" for side in sides):
                    continue
                for side in sides:
                    if isinstance(side, ast.Attribute) and \
                            side.attr == "kind":
                        continue
                    arms |= cls._kind_tokens(side, info.module, constants)
        return arms

    @classmethod
    def _kind_tokens(cls, expr: ast.AST, ctx: ModuleContext,
                     constants: Dict[str, str]) -> Set[str]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return {expr.value}
        if isinstance(expr, (ast.Name, ast.Attribute)):
            value = constants.get(_absolute_name(ctx, expr) or "")
            return {value} if value is not None else set()
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            tokens: Set[str] = set()
            for elt in expr.elts:
                tokens |= cls._kind_tokens(elt, ctx, constants)
            return tokens
        return set()

    @classmethod
    def _append_kind(cls, call: ast.Call, ctx: ModuleContext,
                     constants: Dict[str, str]) -> Optional[str]:
        func = call.func
        assert isinstance(func, ast.Attribute)
        if func.attr in _TYPED_APPEND_KINDS:
            return _TYPED_APPEND_KINDS[func.attr]
        kind_expr: Optional[ast.expr] = None
        if call.args:
            kind_expr = call.args[0]
        else:
            for keyword in call.keywords:
                if keyword.arg == "kind":
                    kind_expr = keyword.value
        if kind_expr is None:
            return None
        tokens = cls._kind_tokens(kind_expr, ctx, constants)
        if len(tokens) == 1:
            return next(iter(tokens))
        return None
