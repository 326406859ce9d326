"""Per-link fault state for the network fabric: the nemesis surface.

:class:`LinkFaults` extends the fail-stop model of :class:`~repro.net.
network.Network` with the message-level faults distributed protocols
actually face:

* **blocked edges** — directed (src, dst) pairs whose traffic is dropped,
  the building block for symmetric and asymmetric partitions;
* **probabilistic loss** — per-edge or default drop probability, drawn
  from a dedicated SeededRng substream so enabling loss never perturbs
  the latency jitter stream;
* **latency spikes** — per-edge or default extra one-way delay, for
  congestion/bufferbloat excursions;
* **duplicate delivery** — an all-links probability that a carried
  message arrives twice, each copy with its own latency draw, the fault
  SEMEL's at-most-once and MILANA's idempotence machinery exist for.

The structure is deliberately *inert by default*: a freshly installed
``LinkFaults`` has ``active == False`` and the network skips it entirely,
so fault machinery costs nothing — and changes nothing — when off.
All mutators are plain state flips at the instant they are called; the
scheduling of fault windows belongs to the nemesis plans in
:mod:`repro.harness.chaos`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..sim.rng import SeededRng

__all__ = ["LinkFaults", "FaultStats"]

Edge = Tuple[str, str]


class FaultStats:
    """Counters for fault-induced message outcomes."""

    def __init__(self) -> None:
        #: Messages dropped because their directed edge was blocked.
        self.messages_blocked = 0
        #: Messages dropped by a probabilistic-loss draw.
        self.messages_lost = 0
        #: Messages delayed by a latency spike (count, not seconds).
        self.messages_delayed = 0


class LinkFaults:
    """Mutable per-edge fault state consulted by ``Network.send``."""

    def __init__(self, rng: SeededRng) -> None:
        self.rng = rng
        self.stats = FaultStats()
        self._blocked: Set[Edge] = set()
        self._loss: Dict[Edge, float] = {}
        self._default_loss = 0.0
        self._extra_latency: Dict[Edge, float] = {}
        self._default_extra_latency = 0.0
        self._duplicate = 0.0

    # -- activity gate ------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when any fault is currently configured."""
        return bool(self._blocked or self._loss or self._default_loss
                    or self._extra_latency or self._default_extra_latency
                    or self._duplicate)

    # -- blocked edges / partitions -----------------------------------------

    def block(self, src: str, dst: str) -> None:
        """Drop all future ``src -> dst`` traffic (directed)."""
        self._blocked.add((src, dst))

    def unblock(self, src: str, dst: str) -> None:
        self._blocked.discard((src, dst))

    def block_pair(self, a: str, b: str) -> None:
        """Drop traffic in both directions between ``a`` and ``b``."""
        self.block(a, b)
        self.block(b, a)

    def partition(self, side_a: Iterable[str], side_b: Iterable[str],
                  symmetric: bool = True) -> None:
        """Cut every ``side_a -> side_b`` edge (and the reverse when
        ``symmetric``); nodes within one side keep communicating."""
        side_a = sorted(side_a)
        side_b = sorted(side_b)
        for a in side_a:
            for b in side_b:
                self.block(a, b)
                if symmetric:
                    self.block(b, a)

    def heal_partition(self, side_a: Iterable[str],
                       side_b: Iterable[str]) -> None:
        """Undo :meth:`partition` (both directions, idempotent)."""
        for a in sorted(side_a):
            for b in sorted(side_b):
                self.unblock(a, b)
                self.unblock(b, a)

    def is_blocked(self, src: str, dst: str) -> bool:
        return (src, dst) in self._blocked

    # -- probabilistic loss ------------------------------------------------

    def set_loss(self, probability: float, src: Optional[str] = None,
                 dst: Optional[str] = None) -> None:
        """Set the drop probability for one edge, or the default for all
        edges when ``src``/``dst`` are omitted. 0 clears."""
        if not 0.0 <= probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {probability}")
        if src is None and dst is None:
            self._default_loss = probability
            return
        if src is None or dst is None:
            raise ValueError("set_loss needs both src and dst, or neither")
        if probability == 0.0:
            self._loss.pop((src, dst), None)
        else:
            self._loss[(src, dst)] = probability

    def clear_loss(self) -> None:
        self._loss.clear()
        self._default_loss = 0.0

    # -- latency spikes ----------------------------------------------------

    def set_extra_latency(self, extra: float, src: Optional[str] = None,
                          dst: Optional[str] = None) -> None:
        """Add ``extra`` seconds of one-way delay on an edge, or on every
        edge when ``src``/``dst`` are omitted. 0 clears."""
        if extra < 0:
            raise ValueError(f"extra latency must be >= 0, got {extra}")
        if src is None and dst is None:
            self._default_extra_latency = extra
            return
        if src is None or dst is None:
            raise ValueError(
                "set_extra_latency needs both src and dst, or neither")
        if extra == 0.0:
            self._extra_latency.pop((src, dst), None)
        else:
            self._extra_latency[(src, dst)] = extra

    def clear_extra_latency(self) -> None:
        self._extra_latency.clear()
        self._default_extra_latency = 0.0

    # -- duplicate delivery ------------------------------------------------

    def set_duplicate(self, probability: float) -> None:
        """Deliver each carried message twice with ``probability``, on
        every link. 0 clears."""
        if not 0.0 <= probability < 1.0:
            raise ValueError("duplicate probability must be in [0, 1), "
                             f"got {probability}")
        self._duplicate = probability

    def duplicates(self) -> bool:
        """Whether the message just carried is delivered a second time.
        Draws from this object's rng substream only while duplication
        is on."""
        return self._duplicate > 0.0 and self.rng.random() < self._duplicate

    # -- wholesale heal ----------------------------------------------------

    def heal(self) -> None:
        """Clear every configured fault (partitions, loss, spikes,
        duplication)."""
        self._blocked.clear()
        self.clear_loss()
        self.clear_extra_latency()
        self._duplicate = 0.0

    # -- the per-message decision ------------------------------------------

    def apply(self, src: str, dst: str) -> Tuple[bool, float]:
        """Fault decision for one message on ``src -> dst``.

        Returns ``(dropped, extra_delay)``. Loss draws come from this
        object's own rng substream, so they happen only for edges with a
        configured loss probability and never perturb other streams.
        """
        if (src, dst) in self._blocked:
            self.stats.messages_blocked += 1
            return True, 0.0
        loss = self._loss.get((src, dst), self._default_loss)
        if loss > 0.0 and self.rng.random() < loss:
            self.stats.messages_lost += 1
            return True, 0.0
        extra = self._extra_latency.get((src, dst),
                                        self._default_extra_latency)
        if extra > 0.0:
            self.stats.messages_delayed += 1
        return False, extra
