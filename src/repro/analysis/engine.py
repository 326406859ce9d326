"""The analysis engine: module contexts, the rule registry, the driver.

A :class:`ModuleContext` wraps one parsed source file and precomputes
everything rules keep asking for: the module's one import map (so
``import time as t; t.time()`` still resolves to ``time.time``, and a
relative ``from .validation import validate`` to its absolute name),
generator-function discovery (sim processes are generators), and the
``# simlint: disable=...`` suppression map.

Rules subclass :class:`Rule`, register themselves with the
:func:`rule` decorator, and yield :class:`Finding` objects from
``check``; :meth:`Rule.applies_to` is the only path-scope test and
:meth:`Rule.finding` the only finding constructor.
:func:`analyze_paths` walks files, runs every selected rule, and
filters suppressed findings.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from pathlib import Path, PurePath
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple, Type)

from .findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - the project model imports us
    from .project import Event, FunctionInfo, Project

__all__ = [
    "ModuleContext",
    "Rule",
    "ProjectRule",
    "Suppression",
    "rule",
    "all_rules",
    "analyze_paths",
    "iter_python_files",
    "module_name_for_path",
    "simple_name",
    "SYNTAX_RULE_ID",
    "SUPPRESSION_RULE_ID",
]

#: Pseudo-rule reported when a file cannot be parsed at all.
SYNTAX_RULE_ID = "SYN001"

#: The meta-rule that reports useless suppression comments; the driver
#: runs it in a dedicated pass after every other rule has had the chance
#: to mark suppressions as used.
SUPPRESSION_RULE_ID = "SUP001"

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(disable-file|disable)\s*(?:=\s*([A-Za-z0-9_,\s]+))?")

#: Sentinel meaning "every rule" in suppression sets.
_ALL = "*"


class Suppression:
    """One ``# simlint: disable[-file]`` comment, with usage tracking.

    ``used_rules`` records the ids of findings this comment actually
    suppressed during a run; the SUP001 meta-rule reports comments whose
    rules never fired.
    """

    __slots__ = ("kind", "lineno", "rules", "used_rules")

    #: A comment anchors its SUP001 finding at the start of its line.
    col_offset = 0

    def __init__(self, kind: str, lineno: int, rules: Set[str]) -> None:
        self.kind = kind  # "file" or "line"
        self.lineno = lineno  # the comment's line, even for file-scoped
        self.rules = rules  # rule ids, or {_ALL}
        self.used_rules: Set[str] = set()


def simple_name(expr: Optional[ast.AST]) -> Optional[str]:
    """The last name of ``f`` / ``a.b.f`` (what a callee, receiver or
    exception class is called at its use site); None for any other
    expression."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


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


class ModuleContext:
    """One source file, parsed, with rule-facing helpers."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.module_name = module_name_for_path(path)
        self.source = source
        self.tree = ast.parse(source)  # may raise SyntaxError
        #: every suppression comment in the file, in source order.
        self.suppressions: List[Suppression] = []
        #: line -> set of suppressed rule ids ("*" means all rules).
        self.line_suppressions: Dict[int, Set[str]] = {}
        #: rule ids suppressed for the whole file ("*" means all).
        self.file_suppressions: Set[str] = set()
        self._parse_suppressions()
        #: ``import x.y as z`` -> {"z": "x.y"}; ``import time`` -> {"time": "time"}
        self.import_aliases: Dict[str, str] = {}
        #: ``from a.b import c as d`` -> {"d": "a.b.c"}
        self.from_imports: Dict[str, str] = {}
        #: ``from .v import c`` in ``p.q.m`` -> {"c": "p.q.v.c"}; the first
        #: binding of a name wins. Kept apart from ``from_imports`` so
        #: :meth:`qualname` (what the stdlib rules match) is unchanged.
        self.relative_imports: Dict[str, str] = {}
        self._collect_imports()

    # -- imports / name resolution ----------------------------------------

    def _collect_imports(self) -> None:
        package = self.module_name.split(".")[:-1]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.import_aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a``; attribute chains re-form
                        # the dotted path naturally, so map a -> a.
                        root = alias.name.split(".")[0]
                        self.import_aliases[root] = root
            elif isinstance(node, ast.ImportFrom) and node.level:
                if node.level > len(package):
                    continue
                base = package[: len(package) - (node.level - 1)]
                if node.module:
                    base = base + node.module.split(".")
                for alias in node.names:
                    self.relative_imports.setdefault(
                        alias.asname or alias.name,
                        ".".join(base + [alias.name]))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.from_imports[bound] = f"{node.module}.{alias.name}"

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Best-effort dotted name of an expression, import-aware.

        ``time.time`` -> "time.time"; with ``from time import time`` the
        bare name ``time`` also resolves to "time.time"; with
        ``import numpy.random as npr``, ``npr.rand`` -> "numpy.random.rand".
        Unresolvable expressions (calls, subscripts) return ``None``.
        """
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.from_imports:
                return self.from_imports[name]
            if name in self.import_aliases:
                return self.import_aliases[name]
            return name
        if isinstance(node, ast.Attribute):
            base = self.qualname(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def calls(self) -> Iterator[Tuple[ast.Call, Optional[str]]]:
        """Every Call node paired with the resolved qualname of its callee."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                yield node, self.qualname(node.func)

    # -- generator discovery ----------------------------------------------

    @staticmethod
    def own_nodes(func: ast.AST) -> Iterator[ast.AST]:
        """Walk a function's body in source order (pre-order), without
        descending into nested defs, classes or lambdas."""
        stack = list(ast.iter_child_nodes(func))[::-1]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            stack.extend(list(ast.iter_child_nodes(node))[::-1])

    def generator_functions(self) -> List[ast.FunctionDef]:
        """Functions that contain a yield at their own level (sim processes)."""
        result = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.FunctionDef):
                for child in self.own_nodes(node):
                    if isinstance(child, (ast.Yield, ast.YieldFrom)):
                        result.append(node)
                        break
        return result

    # -- suppressions ------------------------------------------------------

    def _parse_suppressions(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [(tok.start[0], tok.string)
                        for tok in tokens if tok.type == tokenize.COMMENT]
        except tokenize.TokenError:
            comments = []
        for line, text in comments:
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            kind, rules_text = match.groups()
            rules = ({part.strip() for part in rules_text.split(",")
                      if part.strip()} if rules_text else {_ALL})
            if kind == "disable-file":
                self.suppressions.append(Suppression("file", line, rules))
                self.file_suppressions |= rules
            else:
                self.suppressions.append(Suppression("line", line, rules))
                self.line_suppressions.setdefault(line, set()).update(rules)

    def is_suppressed(self, finding: Finding) -> bool:
        hit = False
        for sup in self.suppressions:
            if sup.kind == "line" and sup.lineno != finding.line:
                continue
            if _ALL in sup.rules or finding.rule_id in sup.rules:
                sup.used_rules.add(finding.rule_id)
                hit = True
        return hit


class Rule:
    """Base class for simlint rules.

    Subclasses set ``rule_id``, ``severity``, ``description`` and
    implement ``check``. ``excluded_path_suffixes`` names files the rule
    never applies to (e.g. DET101 must not flag ``sim/rng.py``, the one
    sanctioned wrapper around ``random.Random``); ``required_path_parts``
    restricts a rule to a sub-tree (e.g. ATM002 to ``milana/`` and
    ``semel/``).
    """

    rule_id: str = ""
    severity: str = Severity.ERROR
    description: str = ""
    excluded_path_suffixes: Tuple[str, ...] = ()
    required_path_parts: Tuple[str, ...] = ()
    #: The rule or gate witnessing (or approximating) the same bug
    #: class elsewhere, e.g. DUR004 <-> DET101. Empty when none.
    counterpart: str = ""

    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether a file is in the rule's scope: the one path test,
        for module rules (per file) and project rules (per function,
        class or root) alike."""
        posix = PurePath(path).as_posix()
        if any(posix.endswith(suffix) for suffix in cls.excluded_path_suffixes):
            return False
        if cls.required_path_parts:
            parts = PurePath(path).parts
            return any(part in parts for part in cls.required_path_parts)
        return True

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, path: str, at: Any, message: str) -> Finding:
        """A finding in ``path`` anchored at ``at``: an AST node, a
        walker :class:`~.project.Event` or a :class:`Suppression`
        (anything with ``lineno``/``col_offset``)."""
        return Finding(
            path=path,
            line=getattr(at, "lineno", 1),
            col=getattr(at, "col_offset", 0),
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Project rules run after every module has been parsed, against the
    :class:`~.project.Project` symbol table / call graph, and yield
    findings for any file in the project. ``check`` is a no-op so the
    per-module pass skips them cheaply; scoping is ``applies_to`` on the
    path of whatever function, class or root the rule inspects.

    Rules that replay handler executions implement :meth:`check_events`
    instead of ``check_project``: the default ``check_project`` feeds it
    the event stream of every in-scope generator root (walked once per
    project and shared by every such rule) and reports each anchor once,
    naming the first root that reaches it.
    """

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def roots(self, project: "Project") -> List["FunctionInfo"]:
        """The project's coroutine entry points inside this rule's scope."""
        return [fn for fn in project.roots if self.applies_to(fn.module.path)]

    def check_project(self, project: "Project") -> Iterable[Finding]:
        reported: Set[Tuple[Any, ...]] = set()
        for root in self.roots(project):
            if not root.is_generator:
                continue
            for event, message in self.check_events(root,
                                                    project.events(root)):
                key = self.report_key(event)
                if key not in reported:
                    reported.add(key)
                    yield self.finding(event.function.module.path, event,
                                       message)

    def report_key(self, event: "Event") -> Tuple[Any, ...]:
        """Findings with equal keys are reported once."""
        return (event.function.module.path, event.lineno)

    def check_events(self, root: "FunctionInfo", events: List["Event"]
                     ) -> Iterator[Tuple["Event", str]]:
        """(anchor event, message) pairs for one root's event stream."""
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    instance = cls()
    if not instance.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if instance.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.rule_id}")
    _REGISTRY[instance.rule_id] = instance
    return cls


def all_rules() -> Dict[str, Rule]:
    """The registry (id -> rule instance), importing the built-in rules."""
    from . import durrules as _dur  # noqa: F401 - registration side effect
    from . import iprules as _ip  # noqa: F401 - registration side effect
    from . import rules as _builtin  # noqa: F401 - registration side effect
    return dict(_REGISTRY)


# -- driver ----------------------------------------------------------------


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            found.extend(str(f) for f in sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            found.append(str(p))
    return sorted(dict.fromkeys(found))


def _normalize(path: str) -> str:
    """Posix-style path, relative to the CWD when it lives under it."""
    try:
        rel = os.path.relpath(path)
    except ValueError:  # different drive on windows
        rel = path
    if not rel.startswith(".."):
        path = rel
    return PurePath(path).as_posix()


def analyze_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """Run every (selected) rule over every file under ``paths``.

    Returns ``(findings, files_checked)`` with inline-suppressed findings
    already removed; baseline filtering is the caller's job.
    """
    registry = all_rules()
    active = {rid: r for rid, r in registry.items()
              if (not select or rid in select)
              and not (ignore and rid in ignore)}
    unknown = [rid for rid in list(select or []) + list(ignore or [])
               if rid not in registry and rid != SYNTAX_RULE_ID]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    findings: List[Finding] = []
    files = iter_python_files(paths)
    contexts: Dict[str, ModuleContext] = {}
    for path in files:
        norm = _normalize(path)
        source = Path(path).read_text(encoding="utf-8")
        try:
            contexts[norm] = ModuleContext(norm, source)
        except SyntaxError as exc:
            findings.append(Finding(
                path=norm, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                rule_id=SYNTAX_RULE_ID, severity=Severity.ERROR,
                message=f"cannot parse: {exc.msg}"))

    # Pass 1: per-module rules.
    module_rules = [r for r in active.values()
                    if not isinstance(r, ProjectRule)
                    and r.rule_id != SUPPRESSION_RULE_ID]
    for ctx in contexts.values():
        for r in module_rules:
            if not r.applies_to(ctx.path):
                continue
            for finding in r.check(ctx):
                if not ctx.is_suppressed(finding):
                    findings.append(finding)

    # Pass 2: whole-program rules over the project model.
    project_rules = [r for r in active.values()
                     if isinstance(r, ProjectRule)]
    if project_rules and contexts:
        from .project import Project
        project = Project(contexts.values())
        for r in project_rules:
            for finding in r.check_project(project):
                ctx_for = contexts.get(finding.path)
                if ctx_for is not None and ctx_for.is_suppressed(finding):
                    continue
                findings.append(finding)

    # Pass 3: the useless-suppression meta-rule, now that every other
    # rule has marked the suppressions it consumed.
    meta = active.get(SUPPRESSION_RULE_ID)
    if meta is not None:
        filtering = bool(select or ignore)
        known_ids = set(registry) | {SYNTAX_RULE_ID}
        for ctx in contexts.values():
            if not meta.applies_to(ctx.path):
                continue
            findings.extend(
                meta.unused_findings(ctx, known_ids, filtering))

    findings.sort(key=lambda f: f.sort_key)
    return findings, len(files)
