"""Census fixture (SUP001): a suppression comment whose rule id has a
typo, so it names no rule.

Excerpt of ``repro.sweep.runner``. A comment changes no run; only
SUP001 sees that the suppression now silences nothing and would let
the next finding on its line through unnoticed.
"""

import os


def ensure_child_import_path(package_root):
    existing = os.environ.get("PYTHONPATH", "")  # simlint: disable=DET044
    parts = existing.split(os.pathsep) if existing else []
    if package_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([package_root] + parts)
