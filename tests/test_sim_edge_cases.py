"""Edge-case tests for the simulation kernel beyond the basics."""

import re

import pytest

from repro.sansim import FifoTieBreak, SanitizerRuntime, TracedSimulator
from repro.sim import (
    Interrupt,
    Resource,
    SeededRng,
    Simulator,
)


def _traced_fifo():
    return TracedSimulator(tracer=SanitizerRuntime(),
                           tie_break=FifoTieBreak())


class TestEventEdgeCases:
    def test_double_succeed_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(RuntimeError, match="already triggered"):
            event.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        with pytest.raises(RuntimeError):
            sim.event().value

    def test_defused_failure_does_not_raise(self):
        sim = Simulator()
        event = sim.event()
        event.defused = True
        event.fail(ValueError("swallowed"))
        sim.run()  # no raise

    def test_any_of_failure_propagates_to_waiter(self):
        sim = Simulator()

        def failer():
            yield sim.timeout(1.0)
            raise ValueError("child failed")

        def waiter():
            child = sim.process(failer())
            slow = sim.timeout(10.0)
            try:
                yield sim.any_of([child, slow])
            except ValueError as exc:
                return f"caught: {exc}"

        proc = sim.process(waiter())
        sim.run_until_event(proc)
        assert proc.value == "caught: child failed"

    def test_all_of_failure_propagates(self):
        sim = Simulator()

        def failer():
            yield sim.timeout(1.0)
            raise KeyError("boom")

        def waiter():
            children = [sim.process(failer()), sim.timeout(0.5)]
            try:
                yield sim.all_of(children)
            except KeyError:
                return "caught"

        proc = sim.process(waiter())
        sim.run_until_event(proc)
        assert proc.value == "caught"


class TestRunUntilEvent:
    def test_limit_respected(self):
        sim = Simulator()

        def slow():
            yield sim.timeout(100.0)

        # Keep the queue alive so the drain check never triggers first.
        def heartbeat():
            for _ in range(1000):
                yield sim.timeout(0.5)

        sim.process(heartbeat())
        proc = sim.process(slow())
        with pytest.raises(RuntimeError, match="limit"):
            sim.run_until_event(proc, limit=10.0)

    def test_queue_drain_detected(self):
        sim = Simulator()
        never = sim.event()

        def waiter():
            yield never

        proc = sim.process(waiter())
        with pytest.raises(RuntimeError, match="drained"):
            sim.run_until_event(proc)

    def test_failed_event_reraises(self):
        sim = Simulator()

        def failer():
            yield sim.timeout(1.0)
            raise OSError("disk on fire")

        proc = sim.process(failer())
        proc.defused = True
        with pytest.raises(OSError, match="disk on fire"):
            sim.run_until_event(proc)


class TestInterruptEdgeCases:
    def test_interrupt_while_waiting_on_event(self):
        sim = Simulator()
        never = sim.event()
        outcome = []

        def consumer():
            try:
                yield never
            except Interrupt as exc:
                outcome.append(("interrupted", exc.cause))

        proc = sim.process(consumer())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt("shutdown")

        sim.process(interrupter())
        sim.run()
        assert outcome == [("interrupted", "shutdown")]

    def test_stale_event_after_interrupt_ignored(self):
        """The event a process was waiting on when interrupted may fire
        later; it must not resume the process a second time."""
        sim = Simulator()
        resumes = []

        def sleeper():
            try:
                yield sim.timeout(5.0)
                resumes.append("timeout")
            except Interrupt:
                resumes.append("interrupt")
                yield sim.timeout(10.0)
                resumes.append("after")

        proc = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt()

        sim.process(interrupter())
        sim.run()
        assert resumes == ["interrupt", "after"]

    def test_interrupt_cause_none(self):
        sim = Simulator()
        seen = []

        def sleeper():
            try:
                yield sim.timeout(10.0)
            except Interrupt as exc:
                seen.append(exc.cause)

        proc = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(0.5)
            proc.interrupt()

        sim.process(interrupter())
        sim.run()
        assert seen == [None]


class TestEventFairness:
    def test_waiters_resume_fifo(self):
        # Processes waiting on one event resume in the order they
        # started waiting, each seeing the event's value.
        sim = Simulator()
        gate = sim.event()
        served = []

        def waiter(name, delay):
            yield sim.timeout(delay)
            item = yield gate
            served.append((name, item, sim.now))

        sim.process(waiter("second", 0.2))
        sim.process(waiter("first", 0.1))

        def opener():
            yield sim.timeout(1.0)
            gate.succeed("open")

        sim.process(opener())
        sim.run()
        assert served == [("first", "open", 1.0), ("second", "open", 1.0)]


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def run_once():
            sim = Simulator()
            rng = SeededRng(17)
            log = []
            resource = Resource(sim, capacity=2)

            def worker(index):
                stream = rng.substream(f"w{index}")
                for _ in range(5):
                    yield sim.timeout(stream.uniform(0.1, 1.0))
                    yield resource.hold(stream.uniform(0.01, 0.1))
                    log.append((round(sim.now, 9), index))

            for index in range(4):
                sim.process(worker(index))
            sim.run()
            return log

        assert run_once() == run_once()


class TestRunLoopEdgeCases:
    def test_run_until_now_is_a_noop_for_time(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run(until=1.0)
        assert sim.now == 1.0
        # Running "until now" must neither advance time nor fire the
        # future event scheduled beyond it.
        sim.timeout(5.0)
        sim.run(until=1.0)
        assert sim.now == 1.0
        assert sim.peek() == 6.0

    def test_run_until_now_fires_events_scheduled_at_now(self):
        sim = Simulator()
        fired = []
        event = sim.event()
        event.callbacks.append(lambda e: fired.append(e))
        event.succeed()
        sim.run(until=sim.now)
        assert fired == [event]

    def test_peek_on_empty_heap_is_infinite(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(2.5)
        assert sim.peek() == 2.5
        sim.run()
        assert sim.peek() == float("inf")

    def test_run_until_event_within_limit_returns_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker())
        assert sim.run_until_event(proc, limit=2.0) == "done"
        assert sim.now == 1.0

    def test_events_processed_counts_every_pop(self):
        sim = Simulator()
        for _ in range(5):
            sim.timeout(1.0)
        sim.run()
        assert sim.events_processed == 5

    def test_events_processed_accumulates_across_runs(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.timeout(3.0)
        sim.run(until=2.0)
        assert sim.events_processed == 1
        sim.run()
        assert sim.events_processed == 2

    def test_events_processed_counts_cascading_immediates(self):
        sim = Simulator()

        def ping_pong():
            for _ in range(3):
                yield sim.timeout(0.0)

        proc = sim.process(ping_pong())
        sim.run_until_event(proc)
        # bootstrap + three timeouts + the process completion event.
        assert sim.events_processed == 5

    def test_step_processes_single_event(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.step()
        assert sim.now == 1.0
        assert sim.events_processed == 1


class TestKernelFastPathGuards:
    """Pin behaviours the batched/cached fast paths could regress.

    The kernel's one loop (``Simulator._drain``, behind ``run`` and
    ``run_until_event``) drains same-timestamp events in an inner batch
    loop, single-callback events take a cheaper dispatch branch,
    and ``Process`` caches its resume callback as a bound method. Each
    test here fails if one of those shortcuts changes observable
    behaviour.
    """

    def test_same_timestamp_cascade_drains_within_run_until(self):
        # Events that keep scheduling more work at the *same* timestamp
        # must all fire inside the batch-drain loop before time moves.
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append((sim.now, depth))
            if depth < 5:
                nxt = sim.event()
                nxt.callbacks.append(lambda _ev, d=depth + 1: chain(d))
                sim.schedule(nxt, 0.0)

        root = sim.event()
        root.callbacks.append(lambda _ev: chain(0))
        sim.schedule(root, 1.0)
        sim.run(until=1.0)
        assert [d for _, d in fired] == [0, 1, 2, 3, 4, 5]
        assert all(t == 1.0 for t, _ in fired)
        assert sim.now == 1.0

    def test_until_boundary_does_not_leak_later_events(self):
        # The batch drain compares timestamps, not "close enough":
        # events strictly after `until` stay queued.
        sim = Simulator()
        seen = []
        early = sim.event()
        early.callbacks.append(lambda _ev: seen.append("early"))
        late = sim.event()
        late.callbacks.append(lambda _ev: seen.append("late"))
        sim.schedule(early, 1.0)
        sim.schedule(late, 1.0 + 1e-9)
        sim.run(until=1.0)
        assert seen == ["early"]
        sim.run()
        assert seen == ["early", "late"]

    def test_multi_callback_event_fires_all_in_order(self):
        # The single-callback fast dispatch must not apply to (or drop)
        # the multi-callback case.
        sim = Simulator()
        seen = []
        event = sim.event()
        for tag in ("a", "b", "c"):
            event.callbacks.append(
                lambda _ev, tag=tag: seen.append(tag))
        sim.schedule(event, 0.5)
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_callback_added_during_dispatch_is_not_fired(self):
        # Dispatch snapshots the callback list (clear-then-call): a
        # callback appended while the event fires belongs to nobody.
        sim = Simulator()
        seen = []
        event = sim.event()

        def first(_ev):
            seen.append("first")
            event.callbacks.append(lambda _ev: seen.append("late"))

        event.callbacks.append(first)
        sim.schedule(event, 0.0)
        sim.run()
        assert seen == ["first"]

    def test_run_until_event_with_limit_triggers_exactly_at_limit(self):
        # The limit-set loop admits events at exactly t == limit.
        sim = Simulator()

        def worker():
            yield sim.timeout(10.0)
            return "done"

        proc = sim.process(worker())
        assert sim.run_until_event(proc, limit=10.0) == "done"
        assert sim.now == 10.0

    @pytest.mark.parametrize("make_sim", [Simulator, _traced_fifo],
                             ids=["base", "traced"])
    def test_run_until_event_stops_at_awaited(self, make_sim):
        # N entries at one timestamp, await the k-th: the loop must stop
        # inside the same-timestamp batch, exactly where k step() calls
        # stop, not run on through the rest of the batch.
        n, k = 6, 3

        def build():
            sim = make_sim()
            events = [sim.timeout(1.0, value=index) for index in range(n)]
            sim.timeout(2.0)
            return sim, events

        stepped, _ = build()
        for _ in range(k):
            stepped.step()
        sim, events = build()
        assert sim.run_until_event(events[k - 1]) == k - 1
        state = (sim.events_processed, len(sim._heap), sim.now)
        assert state == (k, n + 1 - k, 1.0)
        assert state == (stepped.events_processed, len(stepped._heap),
                         stepped.now)
        assert [e.processed for e in events] == [True] * k + [False] * (n - k)
        # An already-processed event returns its value without popping.
        assert sim.run_until_event(events[0]) == 0
        assert (sim.events_processed, len(sim._heap)) == (k, n + 1 - k)
        # The two failure messages, decided after the loop has stopped.
        never = sim.event()
        with pytest.raises(RuntimeError, match=re.escape(
                f"simulated time limit 1.5 reached before {never!r} fired")):
            sim.run_until_event(never, limit=1.5)
        assert (sim.now, sim.peek()) == (1.0, 2.0)
        with pytest.raises(RuntimeError, match=re.escape(
                f"simulation queue drained before {never!r} fired")):
            sim.run_until_event(never)
        assert sim.events_processed == n + 1

    def test_interrupt_removes_cached_resume_callback(self):
        # Process caches its resume bound method; interrupt() must
        # detach exactly that callback from the waited-on event, so the
        # original wakeup never double-resumes the generator.
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(5.0)
                log.append("timeout fired")
            except Interrupt as exc:
                log.append(f"interrupted: {exc.cause}")
                yield sim.timeout(10.0)
                log.append("slept after interrupt")

        proc = sim.process(sleeper())

        def nemesis():
            yield sim.timeout(1.0)
            proc.interrupt("bump")

        sim.process(nemesis())
        sim.run()
        # The 5s timeout still fires at t=5 but must find no callback;
        # the process resumes only from its post-interrupt timeout.
        assert log == ["interrupted: bump", "slept after interrupt"]
        assert sim.now == 11.0
