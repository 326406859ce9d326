"""Attribute a cProfile run to layers by the source path of each function.

A layer is a ``repro`` package. Self-time (``tottime``) is used, not
cumulative time, so every profiled second belongs to exactly one layer and
the shares sum to one.
"""

from __future__ import annotations

import cProfile
import os
from typing import Dict, Tuple

__all__ = ["COUNTED", "LAYERS", "LAYER_OF", "SRC", "attribute",
           "layer_of_path"]

#: Layer of every sub-package and top-level module of ``repro``. A name
#: missing here is an error, so a new package cannot vanish into
#: ``stdlib``. Tooling that no workload should enter (analyzer, sanitizer,
#: sweeps, CLIs) belongs to ``harness``: a non-zero share there is visible.
LAYER_OF: Dict[str, str] = {
    "sim": "sim",
    "net": "net",
    "wire": "wire",
    "milana": "milana",
    "semel": "semel",
    "versioning": "semel",
    "durability": "durability",
    "ftl": "ftl",
    "flash": "flash",
    "clocks": "clocks",
    "histogram": "histogram",
    "workloads": "workloads",
    "harness": "harness",
    "verify": "harness",
    "analysis": "harness",
    "baselines": "harness",
    "bench": "harness",
    "faults": "harness",
    "sansim": "harness",
    "services": "harness",
    "sweep": "harness",
    "cli": "harness",
    "__init__": "harness",
    "__main__": "harness",
}

#: ``bench`` is this directory (the closed loops of ``kv_*`` live here);
#: ``stdlib`` is builtins and everything outside both trees.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(LAYER_OF.values())) + (
    "bench", "stdlib")

#: Functions whose call count is reported exactly: (file under
#: ``repro``, function name). ``ncalls`` includes recursive calls.
COUNTED: Dict[str, Tuple[str, str]] = {
    "processes": (os.path.join("sim", "process.py"), "__init__"),
    "size_calls": (os.path.join("wire", "sizing.py"), "payload_size"),
    "histogram_records": ("histogram.py", "record"),
}

_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep
#: The directory that holds the ``repro`` package measured here.
SRC = os.path.normpath(os.path.join(_HERE, os.pardir, os.pardir, "src"))
_REPRO = os.path.join(SRC, "repro") + os.sep


def layer_of_path(path: str) -> str:
    """The layer owning source file ``path`` (``~`` marks a builtin)."""
    if path.startswith(_HERE):
        return "bench"
    if not path.startswith(_REPRO):
        return "stdlib"
    name = path[len(_REPRO):].split(os.sep)[0]
    if name.endswith(".py"):
        name = name[:-3]
    if name not in LAYER_OF:
        raise KeyError(
            f"repro.{name} has no layer; add it to LAYER_OF in "
            f"{os.path.basename(__file__)}")
    return LAYER_OF[name]


def attribute(profile: cProfile.Profile) -> Tuple[Dict[str, float],
                                                  Dict[str, int]]:
    """Self-seconds per layer, and the exact call counts of ``COUNTED``."""
    profile.create_stats()
    seconds = {layer: 0.0 for layer in LAYERS}
    calls = {name: 0 for name in COUNTED}
    for (path, _line, function), (_cc, ncalls, tottime, _ct, _callers) \
            in profile.stats.items():  # type: ignore[attr-defined]
        seconds[layer_of_path(path)] += tottime
        for name, (module, counted) in COUNTED.items():
            if function == counted and path == _REPRO + module:
                calls[name] += ncalls
    return seconds, calls
