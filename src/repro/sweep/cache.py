"""Content-addressed on-disk cache of sweep cell results.

A cell's cache key is the SHA-256 of the canonical JSON of::

    {schema, code fingerprint, sweep, params}

* ``params`` already pins the seed (it is an ordinary cell parameter),
  so two cells differing only in seed never collide;
* the **code fingerprint** is a SHA-256 over every ``.py`` file of the
  installed ``repro`` package (path + content), so any source change —
  kernel, harness, workloads — invalidates the whole cache rather than
  risking stale results after a refactor;
* the sweep name picks the table row whose ``point`` function the
  params are arguments of; the scale, cell index and label are
  deliberately **excluded**: a quick grid often shares points with the
  full grid, and shared cells hit the same entries regardless of which
  scale or position enumerated them.

Entries are single JSON files under ``<root>/<key[:2]>/<key>.json``,
written atomically (tmp + rename) so a crashed or parallel writer can
never leave a torn entry; rereads verify the stored payload fingerprint
and treat mismatches as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .cells import SweepCell
from .worker import CellResult, canonical_json, payload_fingerprint

__all__ = ["CellCache", "code_fingerprint", "DEFAULT_CACHE_DIR"]

#: Cache-entry layout version; bump on incompatible entry changes.
CACHE_SCHEMA = 1

#: Default location, relative to a repository checkout.
DEFAULT_CACHE_DIR = "benchmarks/results/cache"


def code_fingerprint() -> str:
    """SHA-256 over the repro package sources (relative path + bytes)."""
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class CellCache:
    """Content-addressed cell store with hit/miss/store accounting."""

    def __init__(self, root: str,
                 code_fp: Optional[str] = None) -> None:
        self.root = Path(root)
        self.code_fp = code_fp if code_fp is not None else code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key_for(self, cell: SweepCell) -> str:
        material = canonical_json({
            "schema": CACHE_SCHEMA,
            "code": self.code_fp,
            "sweep": cell.sweep,
            "params": dict(cell.params),
        })
        return hashlib.sha256(material.encode()).hexdigest()

    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, cell: SweepCell) -> Optional[CellResult]:
        """Return the cached result for ``cell``, or None on a miss."""
        path = self._path_for(self.key_for(cell))
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        payload = entry.get("payload")
        if (entry.get("schema") != CACHE_SCHEMA or payload is None
                or entry.get("fingerprint")
                != payload_fingerprint(payload)):
            # Torn/stale/corrupt entry: treat as a miss; the fresh
            # result will overwrite it.
            self.misses += 1
            return None
        self.hits += 1
        return CellResult(
            sweep=cell.sweep, index=cell.index, label=cell.label,
            payload=payload,
            fingerprint=entry["fingerprint"],
            host_seconds=0.0, cache_hit=True)

    def put(self, cell: SweepCell, result: CellResult) -> None:
        """Store ``result`` atomically (tmp file + rename)."""
        path = self._path_for(self.key_for(cell))
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "sweep": cell.sweep,
            "params": dict(cell.params),
            "payload": result.payload,
            "fingerprint": result.fingerprint,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
