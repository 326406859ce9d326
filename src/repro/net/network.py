"""Simulated message network between named nodes.

Every node owns an inbox (:class:`~repro.sim.resources.Store`). ``send``
delivers a message into the destination inbox after a latency-model draw;
messages may therefore arrive out of order. Every message that gets on
the wire is one ``_Delivery`` heap entry, the only arrival path, with or
without a fault table installed. The fault model has three layers (see
DESIGN.md "Fault model" for the full taxonomy):

* **fail-stop crashes** — :meth:`crash` silently drops all traffic to and
  from a node until :meth:`recover`; senders observe the failure only as
  RPC timeouts (§4.5). Recovery of the node's *state* is the protocol
  layer's business, not the network's.
* **duplicate delivery** — ``duplicate_probability`` re-delivers a sent
  message with independent latency, exercising SEMEL's at-most-once and
  MILANA's idempotence machinery (§3.3).
* **link faults** — :meth:`install_faults` attaches a
  :class:`~repro.net.faults.LinkFaults` table of per-edge state: blocked
  directed edges (symmetric/asymmetric partitions), probabilistic message
  loss, and latency spikes. The table is consulted only while it has
  faults configured (``active``), and its loss draws come from a
  dedicated rng substream, so runs with no faults enabled are
  byte-identical to runs on a network that never installed the table.

Use :meth:`can_communicate` to ask whether a directed path is currently
healthy under all three layers; chaos schedulers (e.g.
``ChaosMonkey._quorum_safe``) must consult it rather than ``_crashed``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappush
from typing import Any, Dict, Optional, Set

from ..sim.core import Simulator
from ..sim.events import Event
from ..sim.resources import Store
from ..sim.rng import SeededRng
from ..wire.sizing import wire_size_of
from .faults import LinkFaults
from .latency import DEFAULT_DATACENTER_LATENCY, LatencyModel

__all__ = ["Network", "NetworkStats"]


class _Delivery(Event):
    """A scheduled message arrival, as one pre-succeeded heap entry.

    Construction is fully inlined in the style of
    :class:`~repro.sim.events.Timeout`: the event is born triggered,
    carries the message envelope in its own slots, and its single
    callback is the owning network's bound ``_finish_delivery``.
    """

    __slots__ = ("src", "dst", "message")

    def __init__(self, network: "Network", src: str, dst: str,
                 message: Any, delay: float) -> None:
        sim = network.sim
        self.sim = sim
        self.callbacks = [network._delivery_callback]
        self._value = None
        self._ok = True
        self._processed = False
        self.src = src
        self.dst = dst
        self.message = message
        seq = sim._seq
        heappush(sim._heap, (sim._now + delay, seq, self))
        sim._seq = seq + 1


@dataclass
class NetworkStats:
    """Cumulative network activity counters."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    #: All bytes transmitted, maintained as a running counter alongside
    #: ``bytes_by_edge`` (it is read every metrics window, so re-summing
    #: the per-edge dict there would be O(edges) per read).
    total_bytes: int = 0
    #: (src, dst) -> bytes put on that edge (duplicates charged twice;
    #: messages dropped at send time never reach the wire, so they are
    #: not charged).
    bytes_by_edge: Dict[tuple, int] = field(default_factory=dict)


class Network:
    """A latency-modelled, failure-injectable message fabric."""

    def __init__(
        self,
        sim: Simulator,
        rng: SeededRng,
        latency: LatencyModel = None,
        duplicate_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= duplicate_probability < 1.0:
            raise ValueError(
                "duplicate_probability must be in [0, 1), got "
                f"{duplicate_probability}")
        self.sim = sim
        self.rng = rng.substream("network")
        self.latency = latency if latency is not None \
            else DEFAULT_DATACENTER_LATENCY()
        self.duplicate_probability = duplicate_probability
        self.stats = NetworkStats()
        self._inboxes: Dict[str, Store] = {}
        self._crashed: Set[str] = set()
        self._faults: Optional[LinkFaults] = None
        # Bound once so every delivery shares one callback object
        # instead of allocating a new bound method per message.
        self._delivery_callback = self._finish_delivery
        # Per-network RPC request ids: identical seeds give identical
        # traces regardless of what other Simulators ran in-process.
        self._request_ids = itertools.count(1)

    def next_request_id(self) -> int:
        """A fresh RPC request id, scoped to this network."""
        return next(self._request_ids)

    # -- membership ----------------------------------------------------------

    def register(self, name: str) -> Store:
        """Create (or return) the inbox for node ``name``."""
        if name not in self._inboxes:
            self._inboxes[name] = Store(self.sim)
        return self._inboxes[name]

    def is_registered(self, name: str) -> bool:
        return name in self._inboxes

    # -- failure injection -------------------------------------------------------

    def crash(self, name: str) -> None:
        """Fail-stop ``name``: drop all of its traffic until recovery."""
        self._crashed.add(name)

    def recover(self, name: str) -> None:
        """Allow traffic to/from ``name`` again."""
        self._crashed.discard(name)

    def is_crashed(self, name: str) -> bool:
        return name in self._crashed

    def install_faults(self) -> LinkFaults:
        """Attach (or return) the per-link fault table.

        Loss draws use the dedicated ``faults`` substream, so installing
        an empty table — or never calling this at all — leaves every
        other rng stream untouched.
        """
        if self._faults is None:
            self._faults = LinkFaults(self.rng.substream("faults"))
        return self._faults

    @property
    def faults(self) -> Optional[LinkFaults]:
        """The installed fault table, or None when never installed."""
        return self._faults

    def can_communicate(self, src: str, dst: str) -> bool:
        """True when a ``src -> dst`` message would currently be carried
        (no crashed endpoint, no blocked edge). Probabilistic loss does
        not count: the edge still exists."""
        if src in self._crashed or dst in self._crashed:
            return False
        if self._faults is not None and self._faults.is_blocked(src, dst):
            return False
        return True

    # -- messaging -------------------------------------------------------------------

    def send(self, src: str, dst: str, message: Any) -> None:
        """Deliver ``message`` to ``dst`` after a latency draw.

        Silently drops traffic involving crashed nodes (fail-stop model —
        senders observe failures only as timeouts).
        """
        if dst not in self._inboxes:
            raise KeyError(f"unknown destination node {dst!r}")
        self.stats.messages_sent += 1
        if src in self._crashed or dst in self._crashed:
            self.stats.messages_dropped += 1
            return
        # Link faults are checked at send time: a message already in
        # flight when a partition begins is a packet on the wire and
        # still arrives. The `active` gate keeps the default path free
        # of fault-table lookups (and of loss-rng draws).
        extra_delay = 0.0
        if self._faults is not None and self._faults.active:
            dropped, extra_delay = self._faults.apply(src, dst)
            if dropped:
                self.stats.messages_dropped += 1
                return
        size = wire_size_of(message)
        self._schedule_delivery(src, dst, message, size, extra_delay)
        if (self.duplicate_probability > 0
                and self.rng.random() < self.duplicate_probability):
            self.stats.messages_duplicated += 1
            self._schedule_delivery(src, dst, message, size, extra_delay)

    def _schedule_delivery(self, src: str, dst: str, message: Any,
                           size: int, extra_delay: float = 0.0) -> None:
        delay = self.latency.sample(self.rng)
        delay += self.latency.transmission_delay(size) + extra_delay
        stats = self.stats
        edge = (src, dst)
        stats.bytes_by_edge[edge] = stats.bytes_by_edge.get(edge, 0) + size
        stats.total_bytes += size
        # A single arrival event per message (one heap entry, no
        # generator frames); crashes are re-checked when it fires.
        _Delivery(self, src, dst, message, delay)

    def _finish_delivery(self, event: "_Delivery") -> None:
        """Complete an arrival: re-check crashes, hand to the inbox."""
        src = event.src
        dst = event.dst
        if dst in self._crashed or src in self._crashed:
            # Crashed while the message was in flight.
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        message = event.message
        tracer = self.sim.tracer
        if tracer is not None:
            # Sanitizer seam: remember the sender clock this message
            # carries so the receiver's dispatch loop can adopt it.
            tracer.tag_payload(message)
        inbox = self._inboxes[dst]
        getters = inbox._getters
        if getters:
            # Inline Store.put for the two common inbox states; the
            # bounded-and-full case falls back to the real put so
            # putter queueing stays in one place.
            getters.popleft().succeed(message)
        elif len(inbox._items) < inbox.capacity:
            inbox._items.append(message)
        else:
            inbox.put(message)
