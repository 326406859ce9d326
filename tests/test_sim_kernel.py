"""Unit tests for the discrete-event simulation kernel."""

import random

import pytest

from repro.sim import (
    Interrupt,
    Resource,
    SeededRng,
    Simulator,
    Store,
)


class TestSimulatorBasics:
    def test_time_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_timeout_advances_time(self):
        sim = Simulator()
        times = []

        def proc():
            yield sim.timeout(1.0)
            times.append(sim.now)
            yield sim.timeout(0.5)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [1.0, 1.5]

    def test_timeout_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_run_until_advances_time_even_when_queue_empty(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_does_not_pass_limit(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(10.0)
            fired.append(sim.now)

        sim.process(proc())
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run(until=20.0)
        assert fired == [10.0]

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []

        def make(name):
            def proc():
                yield sim.timeout(1.0)
                order.append(name)
            return proc

        for name in "abc":
            sim.process(make(name)())
        sim.run()
        assert order == ["a", "b", "c"]


def cancel_run(seed, cancel):
    """Seeded timeouts (many tied), a random subset cancelled up front
    and more cancelled, and new ones armed, from the callbacks of those
    that fire. Returns the fired ``(name, now)`` order and the
    simulator."""
    sim = Simulator()
    rng = random.Random(seed)
    fired = []
    timers = []
    gone = set()

    def arm(delay):
        name = len(timers)
        timer = sim.timeout(delay)
        timer.callbacks.append(lambda event: on_fire(name))
        timers.append(timer)

    def drop(target):
        if target not in gone and not timers[target].processed:
            gone.add(target)
            cancel(sim, timers[target])

    def on_fire(name):
        fired.append((name, sim.now))
        if rng.random() < 0.4:
            arm(rng.randrange(40) * 1e-3)
        for _ in range(rng.randrange(4)):
            drop(rng.randrange(len(timers)))

    for _ in range(400):
        arm(rng.randrange(40) * 1e-3)
    for target in rng.sample(range(400), 150):
        drop(target)
    sim.run()
    return fired, sim


class TestCancel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_order_is_that_of_no_op_callbacks(self, seed):
        reference, plain = cancel_run(
            seed, lambda sim, timer: timer.callbacks.clear())
        fired, sim = cancel_run(seed, lambda sim, timer: sim.cancel(timer))
        assert fired == reference
        assert sim._compacted > 0
        assert sim.events_processed == (plain.events_processed
                                        - sim._compacted)
        assert sim._heap == [] and sim._cancelled == 0

    def test_compaction_removes_cancelled_entries_uncounted(self):
        sim = Simulator()
        fired = []
        timers = [sim.timeout(index * 1e-3, index) for index in range(100)]
        for timer in timers:
            timer.callbacks.append(lambda event: fired.append(event.value))
        # The 65th cancel is more than 64 and more than half the heap.
        for timer in timers[:64]:
            sim.cancel(timer)
        assert len(sim._heap) == 100 and sim._cancelled == 64
        sim.cancel(timers[64])
        assert len(sim._heap) == 35 and sim._cancelled == 0
        sim.run()
        assert fired == list(range(65, 100))
        assert sim.events_processed == 35

    def test_cancelled_entry_left_on_the_heap_pops_and_runs_nothing(self):
        sim = Simulator()
        fired = []
        timers = [sim.timeout(delay) for delay in (1.0, 2.0, 3.0)]
        for timer in timers:
            timer.callbacks.append(lambda event: fired.append(sim.now))
        sim.cancel(timers[1])
        sim.run()
        assert fired == [1.0, 3.0]
        assert (sim.events_processed, sim._cancelled) == (3, 0)

    def test_cancelled_failure_is_defused(self):
        sim = Simulator()
        event = sim.event().fail(RuntimeError("nobody listens"))
        sim.cancel(event)
        sim.run()
        assert event.processed

    def test_cancel_raises_on_pending_processed_or_cancelled(self):
        sim = Simulator()
        with pytest.raises(RuntimeError, match="not triggered"):
            sim.cancel(sim.event())
        done = sim.timeout(1.0)
        sim.run()
        with pytest.raises(RuntimeError, match="already processed"):
            sim.cancel(done)
        twice = sim.timeout(1.0)
        sim.cancel(twice)
        with pytest.raises(RuntimeError, match="already cancelled"):
            sim.cancel(twice)
        assert sim._cancelled == 1


class TestProcess:
    def test_return_value_becomes_process_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return 42

        p = sim.process(proc())
        sim.run()
        assert p.value == 42

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_process_can_wait_on_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2.0)
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return (sim.now, result)

        p = sim.process(parent())
        sim.run()
        assert p.value == (2.0, "child-result")

    def test_exception_in_process_propagates_to_waiter(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return f"caught {exc}"

        p = sim.process(parent())
        sim.run()
        assert p.value == "caught boom"

    def test_unwaited_failure_raises_at_sim_level(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("unhandled")

        sim.process(proc())
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_yield_non_event_is_an_error(self):
        sim = Simulator()

        def proc():
            yield 42

        p = sim.process(proc())
        with pytest.raises(TypeError, match="must yield Events"):
            sim.run()
        assert p.ok is False

    def test_manual_event_wakes_process(self):
        sim = Simulator()
        gate = sim.event()
        results = []

        def waiter():
            value = yield gate
            results.append((sim.now, value))

        def opener():
            yield sim.timeout(3.0)
            gate.succeed("open")

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert results == [(3.0, "open")]

    def test_yield_already_processed_event_resumes_immediately(self):
        sim = Simulator()
        gate = sim.event()
        gate.succeed("early")
        results = []

        def late_waiter():
            yield sim.timeout(5.0)
            value = yield gate
            results.append((sim.now, value))

        sim.process(late_waiter())
        sim.run()
        assert results == [(5.0, "early")]

    def test_interrupt_wakes_process_with_cause(self):
        sim = Simulator()
        outcome = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                outcome.append((sim.now, exc.cause))

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(2.0)
            p.interrupt("wake up")

        sim.process(interrupter())
        sim.run()
        assert outcome == [(2.0, "wake up")]

    def test_interrupt_finished_process_is_error(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()


class TestConditions:
    def test_any_of_fires_on_first(self):
        sim = Simulator()

        def proc():
            fast = sim.timeout(1.0, value="fast")
            slow = sim.timeout(5.0, value="slow")
            result = yield sim.any_of([fast, slow])
            return (sim.now, list(result.values()))

        p = sim.process(proc())
        sim.run()
        assert p.value == (1.0, ["fast"])

    def test_all_of_waits_for_every_child(self):
        sim = Simulator()

        def proc():
            events = [sim.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
            result = yield sim.all_of(events)
            return (sim.now, sorted(result.values()))

        p = sim.process(proc())
        sim.run()
        assert p.value == (3.0, [1.0, 2.0, 3.0])

    def test_empty_all_of_fires_immediately(self):
        sim = Simulator()

        def proc():
            yield sim.all_of([])
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0.0


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        results = []

        def producer():
            yield store.put("a")
            yield sim.timeout(1.0)
            yield store.put("b")

        def consumer():
            for _ in range(2):
                item = yield store.get()
                results.append((sim.now, item))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert results == [(0.0, "a"), (1.0, "b")]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        results = []

        def consumer():
            item = yield store.get()
            results.append((sim.now, item))

        def producer():
            yield sim.timeout(4.0)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert results == [(4.0, "late")]

    def test_capacity_blocks_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put(1)
            log.append(("put1", sim.now))
            yield store.put(2)
            log.append(("put2", sim.now))

        def consumer():
            yield sim.timeout(5.0)
            item = yield store.get()
            log.append(("got", item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("put1", 0.0) in log
        assert ("put2", 5.0) in log

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        for item in range(5):
            store.put(item)
        got = []

        def consumer():
            while len(got) < 5:
                item = yield store.get()
                got.append(item)

        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


class TestResource:
    def test_mutual_exclusion(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def worker(name):
            log.append((name, "request", sim.now))
            yield res.hold(1.0)
            log.append((name, "done", sim.now))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run()
        assert log == [
            ("a", "request", 0.0),
            ("b", "request", 0.0),
            ("a", "done", 1.0),
            ("b", "done", 2.0),
        ]
        assert res.held_time == 2.0

    def test_capacity_allows_parallelism(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        ends = []

        def worker():
            yield res.hold(1.0)
            ends.append(sim.now)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        assert ends == [1.0, 1.0, 2.0, 2.0]

    def test_negative_duration_is_error(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(ValueError):
            res.hold(-1.0)
        assert (res.in_use, res.queued) == (0, 0)

    def test_queued_counter(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.hold(10.0)
        res.hold(1.0)
        sim.run(until=5.0)
        assert res.queued == 1
        assert res.in_use == 1
        sim.run()
        assert (res.queued, res.in_use, res.held_time) == (0, 0, 11.0)

    def test_free_hold_is_one_heap_entry_and_queued_adds_none(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        first, second = res.hold(2.0), res.hold(3.0)
        assert len(sim._heap) == 1 and not second.triggered
        sim.run()
        assert (first.processed, second.processed) == (True, True)
        assert (sim.now, sim.events_processed) == (5.0, 2)

    def test_release_runs_before_the_holder_resumes(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        seen = []

        def holder():
            yield res.hold(1.0)
            seen.append((res.in_use, res.held_time))

        sim.process(holder())
        sim.run()
        assert seen == [(0, 1.0)]

    def test_interrupted_holder_keeps_its_slot(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def holder():
            try:
                yield res.hold(10.0)
            except Interrupt:
                log.append(("interrupted", sim.now))

        def next_in_line():
            yield sim.timeout(1.0)
            yield res.hold(1.0)
            log.append(("next", sim.now))

        proc = sim.process(holder())
        sim.process(next_in_line())
        sim.run(until=2.0)
        proc.interrupt("stop")
        sim.run(until=5.0)
        assert res.in_use == 1 and res.queued == 1
        sim.run()
        assert log == [("interrupted", 2.0), ("next", 11.0)]
        assert res.held_time == 11.0


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(7)
        b = SeededRng(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededRng(7)
        b = SeededRng(8)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_substreams_are_independent_of_draw_order(self):
        root1 = SeededRng(7)
        _ = root1.random()
        sub1 = root1.substream("clock")

        root2 = SeededRng(7)
        sub2 = root2.substream("clock")
        assert [sub1.random() for _ in range(5)] == [sub2.random() for _ in range(5)]

    def test_named_substreams_differ(self):
        root = SeededRng(7)
        a = root.substream("a")
        b = root.substream("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]
