"""Registry completeness checker behind ``repro wire --check``.

Two halves:

* :func:`validate_registry` (re-run here) — every registered message is
  a frozen dataclass that round-trips through its wire form with a
  positive, deterministic size;
* an AST sweep of the source tree — every dotted RPC method named at a
  ``register``/``call``/``send_oneway``/``replicate_to_backups`` site must have a registry entry, and every
  registry entry must have at least one ``register`` site, so the
  registry can neither lag behind nor outgrow the code.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

from .registry import REGISTRY, validate_registry

__all__ = ["scan_rpc_methods", "run_check", "check_tree"]

#: call-name -> argument index of the method-name string literal.
_METHOD_ARG_INDEX = {
    "register": 0,
    "call": 1,
    "send_oneway": 1,
    "replicate_to_backups": 2,
}


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _literal_method(node: ast.Call, name: str) -> str:
    index = _METHOD_ARG_INDEX[name]
    if len(node.args) > index:
        arg = node.args[index]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    for keyword in node.keywords:
        if keyword.arg == "method" and isinstance(keyword.value, ast.Constant) \
                and isinstance(keyword.value.value, str):
            return keyword.value.value
    return ""


def scan_rpc_methods(root: Path) -> Dict[str, List[Tuple[str, str, int]]]:
    """Map dotted RPC method name -> [(site kind, file, line), ...] for
    every string-literal method at a known RPC site under ``root``."""
    sites: Dict[str, List[Tuple[str, str, int]]] = {}
    for path in sorted(root.rglob("*.py")):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        rel = str(path.relative_to(root))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name not in _METHOD_ARG_INDEX:
                continue
            method = _literal_method(node, name)
            # Only dotted names are protocol methods; bare names are
            # ad-hoc test/demo handlers outside the registry's remit.
            if "." not in method:
                continue
            sites.setdefault(method, []).append((name, rel, node.lineno))
    return sites


def _iter_kinds(records: Iterable[Tuple[str, str, int]]) -> Set[str]:
    return {kind for kind, _, _ in records}


def check_tree(root: Path) -> List[str]:
    """Cross-check the registry against the code under ``root``."""
    problems: List[str] = []
    sites = scan_rpc_methods(root)
    for method in sorted(sites):
        if method not in REGISTRY:
            where = ", ".join(
                f"{rel}:{line}" for _, rel, line in sites[method][:3])
            problems.append(
                f"{method}: used in code ({where}) but has no "
                f"repro.wire registry entry")
    for method in sorted(REGISTRY):
        kinds = _iter_kinds(sites.get(method, ()))
        if "register" not in kinds:
            problems.append(
                f"{method}: registered in repro.wire but no handler "
                f"registers it under {root}")
    return problems


def run_check(root: Path) -> Tuple[List[str], int]:
    """Full check: registry self-validation plus the tree cross-check.

    Returns (problems, methods scanned)."""
    problems = validate_registry()
    problems.extend(check_tree(root))
    return problems, len(REGISTRY)
