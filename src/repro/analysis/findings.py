"""Finding and severity types shared by the engine, rules, and CLI."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Tuple

__all__ = ["Finding", "Severity"]


class Severity:
    """Symbolic severities; plain strings so findings serialize trivially."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str          # posix-style path as given to the analyzer
    line: int          # 1-based
    col: int           # 0-based, as in the ast module
    rule_id: str
    severity: str
    message: str

    @property
    def fingerprint(self) -> str:
        """Location-independent identity used for baseline matching.

        Deliberately excludes line/col so that unrelated edits above a
        grandfathered finding do not invalidate the baseline entry.
        """
        raw = f"{self.path}::{self.rule_id}::{self.message}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule_id} {self.severity}: {self.message}")

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_json(cls, item: Dict[str, Any]) -> "Finding":
        """The finding :meth:`to_json` wrote (the fingerprint is derived,
        so it is not read back)."""
        return cls(path=item["path"], line=int(item["line"]),
                   col=int(item["col"]), rule_id=item["rule"],
                   severity=item["severity"], message=item["message"])
