"""Generator-based simulation processes.

A process wraps a Python generator. Each ``yield`` must produce an
:class:`~repro.sim.events.Event`; the process suspends until the event fires
and resumes with the event's value (or, for a failed event, the exception is
thrown into the generator). A process is itself an event that fires with the
generator's return value, so processes can wait on each other.

A process normally takes its first step from a bootstrap event queued
at the current time (``Simulator.process``). ``Simulator.start`` runs
that first step at once instead, nested in the caller's step and
through the same resume body, and queues nothing: the network starts a
request's handler that way inside the request's delivery event, and
the MILANA client its ``txn_get``/``commit`` processes, which saves one
heap event per start.

Hot-path note: :meth:`Process._resume` runs once per yield of every
process in the system, so it reads event state through the underscored
attributes and pushes onto the simulator heap directly, like the rest of
the kernel (see events.py). The constructor caches three bound methods
in slots — ``generator.send``/``generator.throw`` (``_send``/``_throw``)
and the resume callback itself (``_resume_cb``) — so the per-yield path
neither re-binds generator methods nor allocates a fresh bound-method
object for every ``callbacks.append``. ``_resume_cb`` is a bound method
of the process stored on the process, a reference cycle, so all three
(and the generator) are dropped by :meth:`Process._release` the moment
the generator finishes, on every completion path: a finished process is
then freed by refcounting with its last outside reference instead of
waiting for — and feeding — the cyclic collector, which at 48 processes
per transaction would cost a third of a Retwis run's host time
(docs/PERFORMANCE.md, "The collector"; ``tests/test_sim_gc.py``). A
stale trigger that fires later holds its own bound method and returns
at the first line of :meth:`Process._resume`. That method is the only
resume body, under the plain kernel and under the tie-break kernel
(:mod:`repro.sim.tiebreak`) alike.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator

from .events import Event, Interrupt

__all__ = ["Process"]

#: The trigger a process started ``now`` resumes from: born succeeded
#: and processed, never pushed, shared because a succeeded trigger is
#: only ever read.
_ARRIVAL = Event(None)  # type: ignore[arg-type]
_ARRIVAL._ok = True
_ARRIVAL._value = None
_ARRIVAL._processed = True


class Process(Event):
    """Drives a generator, suspending at each yielded event."""

    __slots__ = ("_generator", "_waiting_on", "_resume_cb", "_send",
                 "_throw")

    def __init__(self, sim: "Simulator", generator: Generator,  # noqa: F821
                 *, now: bool = False) -> None:
        """Drive ``generator`` from a bootstrap event queued at the
        current time; with ``now`` (``Simulator.start``), run its first
        step here instead, inside the caller's step, through the one
        resume body, and queue nothing."""
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {generator!r}; did you "
                "forget to call the generator function?")
        super().__init__(sim)
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        resume = self._resume_cb = self._resume
        if now:
            self._waiting_on = _ARRIVAL
            resume(_ARRIVAL)
            return
        bootstrap = Event(sim)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks.append(resume)
        heappush(sim._heap, (sim._now, sim._seq, bootstrap))
        sim._seq += 1
        self._waiting_on = bootstrap

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current event (which may still fire
        later and is ignored). Interrupting a finished process is an error.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self!r}")
        carrier = Event(self.sim)
        carrier._ok = False
        carrier._value = Interrupt(cause)
        carrier.defused = True

        waiting_on = self._waiting_on
        if waiting_on is not None and not waiting_on._processed:
            try:
                waiting_on.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
            if not waiting_on.callbacks:
                # Abandoned with no other waiters: if the event later
                # fails (a replication quorum collapsing under a
                # crash-killed handler, a timeout racing the interrupt)
                # nobody is left to observe it — defuse so the failure
                # cannot raise into the run loop.
                waiting_on.defused = True
        self._waiting_on = carrier
        carrier.callbacks.append(self._resume_cb)
        self.sim.schedule(carrier)

    # -- internals ----------------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        if trigger is not self._waiting_on:
            # A stale event (e.g. one abandoned by an interrupt) fired.
            return
        self._waiting_on = None  # type: ignore[assignment]
        try:
            if trigger._ok:
                target = self._send(trigger._value)
            else:
                trigger.defused = True
                target = self._throw(trigger._value)
        except StopIteration as stop:
            self._release()
            self.succeed(getattr(stop, "value", None))
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process quietly with the
            # interrupt as a failure value for anyone joined on it.
            self._release()
            self._ok = False
            self._value = exc
            self.defused = True
            sim = self.sim
            heappush(sim._heap, (sim._now, sim._seq, self))
            sim._seq += 1
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self._release()
            self.fail(exc)
            return

        if not isinstance(target, Event):
            error = TypeError(
                f"process yielded {target!r}; processes must yield Events")
            self._crash(error)
            return

        if target._processed:
            self._relay(target)
        else:
            if target._ok is False:
                target.defused = True
            self._waiting_on = target
            target.callbacks.append(self._resume_cb)

    def _relay(self, target: Event) -> None:
        """Wait on ``target``, which fired during an earlier simulator
        step, by relaying its outcome through a fresh immediate event."""
        relay = Event(self.sim)
        relay._ok = target._ok
        relay._value = target._value
        if relay._ok is False:
            target.defused = True
            relay.defused = True
        self._waiting_on = relay
        relay.callbacks.append(self._resume_cb)
        self.sim.schedule(relay)

    def _release(self) -> None:
        """Drop the generator and the cached bound methods: the process
        has finished and must not stay a reference cycle."""
        self._generator = self._send = self._throw = self._resume_cb = \
            None  # type: ignore[assignment]

    def _crash(self, error: BaseException) -> None:
        """Terminate the generator with ``error`` and fail the process."""
        try:
            self._throw(error)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
        except BaseException as exc:  # noqa: BLE001
            self.fail(exc)
        else:
            self.fail(error)
        finally:
            self._release()
