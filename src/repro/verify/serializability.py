"""Multi-version serializability checking.

Builds the multi-version serialization graph (MVSG) over committed
transactions and reports any cycle:

* **WR** edges: the writer of the version a transaction read precedes it;
* **WW** edges: writers of the same key, in version order;
* **RW** anti-dependencies: a reader precedes the writer of the next
  version after the one it observed.

Acyclicity of the MVSG is sufficient for (multi-version view)
serializability; crucially it *admits* histories where a slower-clocked
writer commits "into the past" without conflicting — which MVCC permits
and strict commit-timestamp replay would falsely reject.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["TxnEntry", "check_serializability"]


@dataclass(frozen=True)
class TxnEntry:
    """One committed transaction, as the checker sees it."""

    txn_id: str
    #: key -> observed version (orderable, e.g. a Version tuple) or None
    #: for a key that was absent at the snapshot.
    reads: Dict[str, Any] = field(default_factory=dict)
    #: key -> written version.
    writes: Dict[str, Any] = field(default_factory=dict)
    ts: float = 0.0


def check_serializability(
        history: List[TxnEntry]) -> Tuple[bool, Optional[tuple]]:
    """Return ``(True, None)`` for a serializable history, else
    ``(False, witness)`` where the witness names an edge on a cycle."""
    writer_of: Dict[tuple, str] = {}
    versions_by_key: Dict[str, list] = {}
    for entry in history:
        for key, version in entry.writes.items():
            writer_of[(key, version)] = entry.txn_id
            versions_by_key.setdefault(key, []).append(version)
    for versions in versions_by_key.values():
        versions.sort()

    # Successors in insertion order (a dict, not a set of strings), so
    # the cycle reported does not depend on PYTHONHASHSEED.
    edges: Dict[str, Dict[str, None]] = {
        entry.txn_id: {} for entry in history}

    def add_edge(src: str, dst: str) -> None:
        if src != dst:
            edges[src][dst] = None

    for key, versions in versions_by_key.items():
        for older, newer in zip(versions, versions[1:]):
            add_edge(writer_of[(key, older)], writer_of[(key, newer)])

    for entry in history:
        for key, observed in entry.reads.items():
            versions = versions_by_key.get(key, [])
            if (key, observed) in writer_of:
                add_edge(writer_of[(key, observed)], entry.txn_id)
                index = bisect.bisect_right(versions, observed)
            else:
                index = 0  # read initial state (or a pre-history write)
            if index < len(versions):
                add_edge(entry.txn_id, writer_of[(key, versions[index])])

    # Iterative three-colour DFS cycle detection.
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in edges}
    for root in edges:
        if colour[root] != WHITE:
            continue
        stack = [(root, iter(edges[root]))]
        colour[root] = GREY
        while stack:
            node, iterator = stack[-1]
            advanced = False
            for nxt in iterator:
                if colour[nxt] == GREY:
                    return False, ("cycle", node, nxt)
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return True, None
