"""Request/response RPC over the simulated network.

An :class:`RpcNode` is a handler registry plus the receive callable the
network hands each arriving message to (no inbox, no dispatch process).
Calls carry request ids unique per :class:`Network`; retransmissions
reuse the id, so servers see duplicates exactly the way SEMEL's
idempotence machinery expects (§3.3). One-way messages (watermark
broadcasts, async commit notifications) skip the response path entirely.

One heap hop per message. A request starts its handler process on
arrival, inside the delivery event (``Simulator.start``). A call is a
*pending-call record*: the :class:`~repro.sim.events.Event` that
:meth:`RpcNode.call` returns, kept in ``RpcNode._pending`` by request id
and succeeded or failed directly by the response. Its deadline is one
``Timeout`` that carries the request id, not the record, so nothing on
the heap holds an answered record; retries and their backoff run from
that timer's callback. The record keeps its current timer, and the
response that answers it cancels that timer (``Simulator.cancel``), so
the heap holds only the deadlines of calls still waiting, plus cancelled
ones until the next compaction. A no-suspend echo round trip is
therefore five events: two deliveries, the handler's completion, the
record, and its cancelled deadline, which runs nothing and is popped or
compacted away.

Methods listed in the :mod:`repro.wire` registry are type-checked at
both ends: ``call``/``send_oneway`` reject request payloads that are not
the registered request message, and ``_serve`` turns a mistyped handler
result into an error response. Ad-hoc (non-dotted) methods — used by
net-layer tests and demos — bypass the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from ..sim.core import Simulator
from ..sim.events import PENDING, Event, Interrupt, Timeout
from ..sim.process import Process
from ..wire.registry import spec_for
from ..wire.sizing import LENGTH_PREFIX_SIZE, SCALAR_SIZE, payload_size
from .network import Network

__all__ = [
    "Request",
    "Response",
    "RpcError",
    "RpcTimeout",
    "AppError",
    "RpcNode",
    "RETRY_BACKOFF_BASE",
    "RETRY_BACKOFF_CAP",
]

#: First retry backs off this long (doubling per attempt), scaled by a
#: deterministic jitter draw in [0.5, 1.5) so concurrent callers that
#: timed out together do not retry in lockstep during a partial outage.
RETRY_BACKOFF_BASE = 1e-3
RETRY_BACKOFF_CAP = 100e-3

#: Envelope overhead: request id (8) + ok/oneway flag (1).
_ENVELOPE_SIZE = SCALAR_SIZE + 1


class RpcError(Exception):
    """Base class for RPC failures."""


class RpcTimeout(RpcError):
    """No response within the deadline after all retries."""


class AppError(RpcError):
    """Raised by a handler; propagated to the caller as a failed call."""


@dataclass(frozen=True)
class Request:
    request_id: int
    src: str
    method: str
    payload: Any
    oneway: bool = False

    def wire_size(self) -> int:
        """Envelope + addressing + method tag + payload bytes."""
        return (_ENVELOPE_SIZE
                + LENGTH_PREFIX_SIZE + len(self.src.encode("utf-8"))
                + LENGTH_PREFIX_SIZE + len(self.method.encode("utf-8"))
                + payload_size(self.payload))


@dataclass(frozen=True)
class Response:
    request_id: int
    ok: bool
    payload: Any

    def wire_size(self) -> int:
        """Envelope + payload bytes."""
        return _ENVELOPE_SIZE + payload_size(self.payload)


def _check_request_payload(method: str, payload: Any) -> None:
    spec = spec_for(method)
    if spec is not None and not isinstance(payload, spec.request):
        raise TypeError(
            f"{method} request payload must be {spec.request.__name__}, "
            f"got {type(payload).__name__}")


class _Call(Event):
    """A pending call: the event :meth:`RpcNode.call` returns.

    Born pending, like ``Event``, with the request and its retry state
    in its own slots. ``in_flight`` is False while a retry backs off;
    a response that arrives then answers an abandoned attempt and is
    dropped, as it is after the last deadline. ``timer`` is the
    deadline or backoff ``Timeout`` now on the heap, set by each
    transmission and backoff.
    """

    __slots__ = ("dst", "request", "timeout", "attempts", "attempt",
                 "in_flight", "timer")

    def __init__(self, sim: Simulator, dst: str, request: Request,
                 timeout: float, attempts: int) -> None:
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._processed = False
        self.dst = dst
        self.request = request
        self.timeout = timeout
        self.attempts = attempts
        self.attempt = 0
        self.in_flight = True


class RpcNode:
    """A named endpoint that can serve handlers and make calls."""

    def __init__(self, sim: Simulator, network: Network, name: str) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self._handlers: Dict[str, Callable] = {}
        #: request id -> pending-call record, in call order.
        self._pending: Dict[int, _Call] = {}
        # Bound once: every deadline and backoff timer shares it.
        self._timer_callback = self._on_timer
        # Per-node jitter stream for retry backoff. Substream derivation
        # draws nothing from the parent, and this stream is touched only
        # when a retry actually fires, so retry-free runs are unaffected.
        self._backoff_rng = network.rng.substream(f"backoff/{name}")
        #: Unexpected (non-AppError) exceptions raised by handlers; they
        #: are converted to error responses, and counted here so tests can
        #: assert nothing blew up silently.
        self.handler_errors = 0
        #: Live handler processes, so an amnesia crash can interrupt
        #: every in-flight handler (they reference volatile state through
        #: ``self`` and must not keep mutating it across a restart). A
        #: dict for its insertion order: processes hash by identity, so
        #: a set would interrupt them in heap-address order and the
        #: killed handlers' ``finally`` blocks would run in an order
        #: that differs from one host run to the next.
        self._procs: Dict[Process, None] = {}
        self.crashes = 0
        #: False between :meth:`crash` and :meth:`restart`.
        self._up = True
        network.register(name, self._receive)

    # -- server side -------------------------------------------------------

    def register(self, method: str, handler: Callable) -> None:
        """Register a generator function ``handler(payload)`` for
        ``method``; its return value becomes the response payload.

        Dotted method names are protocol surface and must exist in the
        :mod:`repro.wire` registry; bare names are ad-hoc (tests, demos)
        and are accepted as-is.
        """
        if method in self._handlers:
            raise ValueError(f"handler for {method!r} already registered")
        if "." in method and spec_for(method) is None:
            raise ValueError(
                f"{method!r} is not in the repro.wire registry; add a "
                f"MethodSpec before registering a handler")
        self._handlers[method] = handler

    def _receive(self, message: Any) -> None:
        """The node's receive callable; runs inside the message's
        delivery event. A request starts its handler there; a response
        answers its pending call."""
        if not self._up:
            return
        if isinstance(message, Request):
            proc = self.sim.start(self._serve(message))
            if proc._value is PENDING:
                self._procs[proc] = None
                proc.callbacks.append(self._untrack)
        elif isinstance(message, Response):
            record = self._pending.get(message.request_id)
            if record is None or not record.in_flight:
                return  # duplicate, late or post-crash response: drop
            del self._pending[message.request_id]
            self.sim.cancel(record.timer)
            if message.ok:
                record.succeed(message.payload)
            else:
                record.fail(AppError(message.payload))
        else:
            raise TypeError(f"unexpected message {message!r}")

    def _serve(self, request: Request):
        handler = self._handlers.get(request.method)
        if handler is None:
            if not request.oneway:
                self.network.send(self.name, request.src, Response(
                    request.request_id, ok=False,
                    payload=f"no handler for {request.method!r}"))
            return
        try:
            result = yield from handler(request.payload)
            spec = spec_for(request.method)
            if spec is not None and not isinstance(result, spec.response):
                raise TypeError(
                    f"{request.method} handler must return "
                    f"{spec.response.__name__}, got "
                    f"{type(result).__name__}")
        except Interrupt:
            # Crash-kill: the node is going down mid-request; vanish
            # without a response (the network drops our traffic anyway).
            raise
        except AppError as exc:
            if not request.oneway:
                self.network.send(self.name, request.src, Response(
                    request.request_id, ok=False, payload=str(exc)))
            return
        except Exception as exc:  # noqa: BLE001 - fault isolation per request
            self.handler_errors += 1
            if not request.oneway:
                self.network.send(self.name, request.src, Response(
                    request.request_id, ok=False,
                    payload=f"{type(exc).__name__}: {exc}"))
            return
        if not request.oneway:
            self.network.send(self.name, request.src, Response(
                request.request_id, ok=True, payload=result))

    # -- client side ----------------------------------------------------------

    def call(
        self,
        dst: str,
        method: str,
        payload: Any = None,
        *,
        timeout: float,
        retries: int = 0,
    ) -> Event:
        """Asynchronously call ``method`` on ``dst``.

        The returned pending-call record fires with the response
        payload; it fails with :class:`RpcTimeout` after ``1 + retries``
        attempts, or with :class:`AppError` if the handler rejected the
        request. Retries reuse the request id, so the callee can
        deduplicate, and back off exponentially with deterministic
        jitter between attempts. ``timeout`` is keyword-only and has no
        default: the failure-detection budget that the CTP and recovery
        arguments rely on is stated at every send-site.
        """
        _check_request_payload(method, payload)
        request = Request(self.network.next_request_id(), self.name,
                          method, payload)
        record = _Call(self.sim, dst, request, timeout, 1 + max(0, retries))
        self._pending[request.request_id] = record
        self._transmit(record)
        return record

    def send_oneway(self, dst: str, method: str, payload: Any = None) -> None:
        """Fire-and-forget one-way message."""
        _check_request_payload(method, payload)
        request = Request(self.network.next_request_id(), self.name,
                          method, payload, oneway=True)
        self.network.send(self.name, dst, request)

    def _transmit(self, record: _Call) -> None:
        """Send one attempt and arm its deadline."""
        request = record.request
        self.network.send(self.name, record.dst, request)
        timer = record.timer = Timeout(self.sim, record.timeout,
                                       request.request_id)
        timer.callbacks.append(self._timer_callback)

    def _on_timer(self, timer: Event) -> None:
        """A call's deadline or backoff timer fired. Each pending call
        has exactly one timer on the heap, ``record.timer``, and
        ``in_flight`` says which kind it is. An answered or crashed
        call's timer was cancelled, so the call is still pending."""
        request_id = timer._value
        record = self._pending[request_id]
        if not record.in_flight:
            # Backoff over: retransmit under the same request id.
            record.in_flight = True
            self._transmit(record)
            return
        attempt = record.attempt
        if attempt + 1 < record.attempts:
            record.attempt = attempt + 1
            record.in_flight = False
            backoff = min(RETRY_BACKOFF_BASE * (2 ** attempt),
                          RETRY_BACKOFF_CAP)
            backoff *= 0.5 + self._backoff_rng.random()
            timer = record.timer = Timeout(self.sim, backoff, request_id)
            timer.callbacks.append(self._timer_callback)
            return
        del self._pending[request_id]
        record.fail(RpcTimeout(
            f"{self.name} -> {record.dst}.{record.request.method}: no "
            f"response after {record.attempts} attempt(s) of "
            f"{record.timeout}s"))

    # -- crash / restart ---------------------------------------------------

    def _untrack(self, proc: Any) -> None:
        self._procs.pop(proc, None)

    def crash(self) -> None:
        """Amnesia fail-stop: interrupt every in-flight handler (in the
        order the requests arrived), fail every pending call with a
        defused :class:`Interrupt` (in call order), cancelling its
        deadline or backoff timer, and take no message until
        :meth:`restart`. The caller is responsible for having the
        network drop this node's traffic first (``Network.crash``)."""
        self._up = False
        for proc in list(self._procs):
            if proc.is_alive:
                proc.interrupt("crash")
        self._procs.clear()
        pending = list(self._pending.values())
        self._pending.clear()
        cancel = self.sim.cancel
        for record in pending:
            cancel(record.timer)
            record.defused = True
            record.fail(Interrupt("crash"))
        self.crashes += 1

    def restart(self) -> None:
        """Re-arm a crashed node: it takes messages again."""
        if self._up:
            raise RuntimeError(
                f"{self.name}: restart() while the node is up; "
                f"crash() first")
        self._up = True
