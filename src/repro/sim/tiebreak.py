"""The tie-break kernel: a simulator whose same-time ties are permutable.

Everything at one simulated instant is causally unordered as far as the
event queue is concerned, so any permutation of a tie is a legal
schedule. :class:`TracedSimulator` overrides the production
:class:`~repro.sim.core.Simulator`'s one loop (``_drain``) as a walk over
:meth:`TracedSimulator.step`, whose pop hands every tie to a policy:
:class:`FifoTieBreak` (scheduling order, byte-identical to the
production kernel; ``tests/test_sansim_fingerprints.py`` pins this) or
:class:`RandomTieBreak` (a uniform draw from a sha256-derived
:class:`~repro.sim.rng.SeededRng` stream, so a seed replays on every
run and platform and perturbs no simulation substream). ``cancel``
drops the event's callbacks but keeps its entry, so every tie a policy
sees is the one the uncancelled schedule had; everything else is
inherited.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Optional, Protocol, Sequence, Tuple

from .core import Simulator
from .events import Event
from .rng import SeededRng

__all__ = [
    "FifoTieBreak",
    "POLICY_NAMES",
    "RandomTieBreak",
    "TieBreakPolicy",
    "TracedSimulator",
    "make_policy",
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
        # Renaming the stream would reseed every recorded random trial.
        self._rng = SeededRng(seed, "sansim/random")

    def choose(self, tied: Sequence[Tuple[float, int, Any]]) -> int:
        return self._rng.randint(0, len(tied) - 1)


def make_policy(name: str, seed: int) -> TieBreakPolicy:
    """Instantiate a policy by name."""
    if name == "fifo":
        return FifoTieBreak()
    if name == "random":
        return RandomTieBreak(seed)
    raise ValueError(
        f"unknown tie-break policy {name!r}; expected one of "
        f"{POLICY_NAMES}")


class TracedSimulator(Simulator):
    """Simulator with permutable same-time ties."""

    __slots__ = ("tie_break",)

    tie_break: TieBreakPolicy

    def __init__(self, tie_break: Optional[TieBreakPolicy] = None) -> None:
        super().__init__()
        self.tie_break = (tie_break if tie_break is not None
                          else FifoTieBreak())

    def cancel(self, event: Event) -> None:
        """Drop ``event``'s callbacks and never compact.

        Seeded tie-break policies draw over every tied entry (two calls
        sent in one step with one timeout have deadlines at the same
        float), so removing cancelled entries would change which entry a
        draw picks. Kept, they pop and fire with no callbacks, and
        schedules stay those of the kernel without cancellation under
        every policy.
        """
        self._disarm(event)

    # -- tie-aware pop ----------------------------------------------------

    def _pop_next(self) -> Tuple[float, int, Event]:
        """Pop the next event, letting the policy pick among time ties.

        Tied entries surface in ascending sequence order (the heap's
        total order is unique), so ``choose() == 0`` reproduces the base
        kernel's schedule exactly.
        """
        heap = self._heap
        entry = heappop(heap)
        if heap and heap[0][0] == entry[0]:
            tied = [entry]
            time = entry[0]
            while heap and heap[0][0] == time:
                tied.append(heappop(heap))
            index = self.tie_break.choose(tied)
            if not 0 <= index < len(tied):  # defensive: bad policy
                index = 0
            entry = tied.pop(index)
            for other in tied:
                heappush(heap, other)
        return entry

    # -- event loop (non-inlined; correctness over speed) -----------------

    def step(self) -> None:
        time, _seq, event = self._pop_next()
        self._now = time
        self.events_processed += 1
        event._fire()

    def _drain(self, until: float, stop: Optional[Event]) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until:
            self.step()
            if stop is not None and stop._processed:
                return
