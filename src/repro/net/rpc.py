"""Request/response RPC over the simulated network.

An :class:`RpcNode` owns a network inbox, a dispatch loop, and a handler
registry. Calls carry request ids unique per :class:`Network`;
retransmissions reuse the id, so servers see duplicates exactly the way
SEMEL's idempotence machinery expects (§3.3). One-way messages
(watermark broadcasts, async commit notifications) skip the response
path entirely.

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
from ..sim.events import PENDING, Event, Interrupt
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
    "DEFAULT_RPC_TIMEOUT",
    "RETRY_BACKOFF_BASE",
    "RETRY_BACKOFF_CAP",
]

#: Generous relative to ~50 µs one-way latency; failed nodes answer never,
#: so this mostly bounds failure detection time in recovery tests.
DEFAULT_RPC_TIMEOUT = 10e-3

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


class RpcNode:
    """A named endpoint that can serve handlers and make calls."""

    def __init__(self, sim: Simulator, network: Network, name: str) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self._inbox = network.register(name)
        self._handlers: Dict[str, Callable] = {}
        self._pending: Dict[int, Event] = {}
        # Per-node jitter stream for retry backoff. Substream derivation
        # draws nothing from the parent, and this stream is touched only
        # when a retry actually fires, so retry-free runs are unaffected.
        self._backoff_rng = network.rng.substream(f"backoff/{name}")
        #: Unexpected (non-AppError) exceptions raised by handlers; they
        #: are converted to error responses, and counted here so tests can
        #: assert nothing blew up silently.
        self.handler_errors = 0
        #: Live serve/call processes, so an amnesia crash can interrupt
        #: every in-flight handler (they reference volatile state through
        #: ``self`` and must not keep mutating it across a restart). A
        #: dict for its insertion order: processes hash by identity, so
        #: a set would interrupt them in heap-address order and the
        #: killed handlers' ``finally`` blocks would run in an order
        #: that differs from one host run to the next.
        self._procs: Dict[Process, None] = {}
        self.crashes = 0
        self._dispatcher = sim.process(self._dispatch_loop())

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

    def _dispatch_loop(self):
        # Hot-path note: this generator runs once per delivered message on
        # every node. The loop-invariant lookups (inbox.get, the sim, the
        # pending-waiter pop) are hoisted into locals; all are safe because
        # crash/restart tears down this generator and builds a fresh one
        # (``_pending`` is ``.clear()``-ed, never reassigned, so the bound
        # ``pop`` stays valid across crashes within a single incarnation).
        sim = self.sim
        inbox_get = self._inbox.get
        new_process = sim.process
        track = self._track
        serve = self._serve
        pending_pop = self._pending.pop
        while True:
            message = yield inbox_get()
            tracer = sim.tracer
            if tracer is not None:
                # Sanitizer seam: this loop is a courier for unrelated
                # conversations — adopt the message's own causal clock
                # rather than accumulating one across all of them.
                tracer.adopt_payload(message)
            if isinstance(message, Request):
                track(new_process(serve(message)))
            elif isinstance(message, Response):
                waiter = pending_pop(message.request_id, None)
                if waiter is not None and waiter._value is PENDING:
                    waiter.succeed(message)
                # else: duplicate or post-timeout response; drop.
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
        tracer = self.sim.tracer
        if tracer is not None:
            # Sanitizer seam: label this request's process so witnesses
            # report "rpc:milana.prepare" rather than a generator name.
            tracer.begin_section(f"rpc:{request.method}",
                                 f"{request.src}->{self.name}")
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
        timeout: float = DEFAULT_RPC_TIMEOUT,
        retries: int = 0,
    ) -> Process:
        """Asynchronously call ``method`` on ``dst``.

        The returned process fires with the response payload; it fails
        with :class:`RpcTimeout` after ``1 + retries`` attempts, or with
        :class:`AppError` if the handler rejected the request. Retries
        reuse the request id, so the callee can deduplicate, and back
        off exponentially with deterministic jitter between attempts.
        """
        _check_request_payload(method, payload)
        proc = self.sim.process(
            self._call(dst, method, payload, timeout, retries))
        self._track(proc)
        return proc

    def send_oneway(self, dst: str, method: str, payload: Any = None) -> None:
        """Fire-and-forget one-way message."""
        _check_request_payload(method, payload)
        request = Request(self.network.next_request_id(), self.name,
                          method, payload, oneway=True)
        self.network.send(self.name, dst, request)

    # -- crash / restart ---------------------------------------------------

    def _track(self, proc: Process) -> Process:
        self._procs[proc] = None
        proc.callbacks.append(self._untrack)
        return proc

    def _untrack(self, proc: Any) -> None:
        self._procs.pop(proc, None)

    def crash(self) -> None:
        """Amnesia fail-stop: kill the dispatcher and every in-flight
        serve/call process (in the order they were spawned), forget
        queued inbox messages and pending response waiters. The caller
        is responsible for having the network drop this node's traffic
        first (``Network.crash``)."""
        if self._dispatcher.is_alive:
            self._dispatcher.interrupt("crash")
        for proc in list(self._procs):
            if proc.is_alive:
                proc.interrupt("crash")
        self._procs.clear()
        self._pending.clear()
        self._inbox.reset()
        self.crashes += 1

    def restart(self) -> None:
        """Re-arm a crashed node: fresh dispatcher, empty pending set."""
        if self._dispatcher.is_alive:
            raise RuntimeError(
                f"{self.name}: restart() while the dispatcher is alive; "
                f"crash() first")
        self._pending.clear()
        self._dispatcher = self.sim.process(self._dispatch_loop())

    def _call(self, dst: str, method: str, payload: Any,
              timeout: float, retries: int):
        request_id = self.network.next_request_id()
        request = Request(request_id, self.name, method, payload)
        attempts = 1 + max(0, retries)
        for attempt in range(attempts):
            waiter = self.sim.event()
            self._pending[request_id] = waiter
            self.network.send(self.name, dst, request)
            deadline = self.sim.timeout(timeout)
            outcome = yield self.sim.any_of([waiter, deadline])
            if waiter in outcome:
                response: Response = outcome[waiter]
                if response.ok:
                    return response.payload
                raise AppError(response.payload)
            self._pending.pop(request_id, None)
            if attempt + 1 < attempts:
                backoff = min(RETRY_BACKOFF_BASE * (2 ** attempt),
                              RETRY_BACKOFF_CAP)
                backoff *= 0.5 + self._backoff_rng.random()
                yield self.sim.timeout(backoff)
        raise RpcTimeout(
            f"{self.name} -> {dst}.{method}: no response after "
            f"{attempts} attempt(s) of {timeout}s")
