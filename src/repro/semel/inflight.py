"""In-flight coalescing maps: request key -> completion event.

A handler still working on a request parks its done-event here, so a
network-duplicated copy waits for the original instead of acking early
or applying it twice. Storing an entry acquires the lock
``(kind, node, key)`` on ``sim.tracer`` (the race sanitizer,
:mod:`repro.sansim`) and popping it releases the lock: writes made while
the entry is held are serialized with every other holder's.
"""

from __future__ import annotations

from typing import Any

__all__ = ["InflightMap"]


class InflightMap(dict):
    """A coalescing map whose entries are sanitizer locks."""

    def __init__(self, sim: Any, node: str, kind: str) -> None:
        super().__init__()
        self._sim = sim
        self._node = node
        self._kind = kind

    def __setitem__(self, key: Any, done: Any) -> None:
        dict.__setitem__(self, key, done)
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.on_acquire((self._kind, self._node, key))

    def pop(self, key: Any, *default: Any) -> Any:
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.on_release((self._kind, self._node, key))
        return dict.pop(self, key, *default)
