"""DESIGN.md's module map names the tree as it is."""

import itertools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def module_map_paths():
    """Every ``repro/...`` path the module map names, braces expanded."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## System inventory (module map)", 1)[1]
    section = section.split("\n## ", 1)[0]
    paths = []
    for spec in re.findall(r"`(repro/[^`\s]*)`", section):
        parts = re.split(r"\{([^}]*)\}", spec)
        choices = [[part] if index % 2 == 0 else part.split(",")
                   for index, part in enumerate(parts)]
        paths += ["".join(combo) for combo in itertools.product(*choices)]
    return paths


def test_every_named_path_exists():
    paths = module_map_paths()
    assert len(paths) > 50
    missing = [path for path in paths if not (SRC / path).exists()]
    assert missing == []


def test_every_module_is_named():
    named = set(module_map_paths())
    modules = sorted(
        str(path.relative_to(SRC)) for path in (SRC / "repro").rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py"))
    assert [module for module in modules if module not in named] == []
