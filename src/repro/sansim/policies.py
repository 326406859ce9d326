"""Tie-break policies: how the explorer permutes same-timestamp events.

The kernel's heap orders events by ``(time, seq)``; everything at the
same simulated instant is causally unordered as far as the event queue
is concerned, so any permutation of a tie is a legal schedule. Policies
choose which tied entry fires next:

* :class:`FifoTieBreak` — index 0, i.e. scheduling order: byte-identical
  to the production kernel (the equivalence tests pin this).
* :class:`RandomTieBreak` — uniform seeded choice; the breadth pass.

Seeds flow through :class:`repro.sim.rng.SeededRng` named streams,
which derive the underlying state with sha256 — deterministic across
runs and platforms, so a trial spec is a complete replay recipe, and
independent of every simulation substream (adding a policy draw never
perturbs workload randomness).
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, Tuple

from ..sim.rng import SeededRng

__all__ = [
    "FifoTieBreak",
    "RandomTieBreak",
    "TieBreakPolicy",
    "make_policy",
    "POLICY_NAMES",
]

POLICY_NAMES = ("fifo", "random")


class TieBreakPolicy(Protocol):
    """Chooses which of the tied heap entries fires next."""

    name: str

    def choose(self, tied: Sequence[Tuple[float, int, Any]]) -> int:
        """Return an index into ``tied`` (entries are ``(time, seq,
        event)`` in ascending sequence order)."""
        ...  # pragma: no cover - protocol


class FifoTieBreak:
    """Scheduling order — the production kernel's schedule, exactly."""

    name = "fifo"

    def choose(self, tied: Sequence[Tuple[float, int, Any]]) -> int:
        return 0


class RandomTieBreak:
    """Uniform seeded permutation of every tie."""

    name = "random"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = SeededRng(seed, "sansim/random")

    def choose(self, tied: Sequence[Tuple[float, int, Any]]) -> int:
        return self._rng.randint(0, len(tied) - 1)


def make_policy(name: str, seed: int) -> TieBreakPolicy:
    """Instantiate a policy by name (the explorer's factory)."""
    if name == "fifo":
        return FifoTieBreak()
    if name == "random":
        return RandomTieBreak(seed)
    raise ValueError(
        f"unknown tie-break policy {name!r}; expected one of "
        f"{POLICY_NAMES}")
