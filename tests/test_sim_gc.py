"""Host-memory guard: nothing allocated per event, message or process
may need CPython's cyclic collector to die (docs/PERFORMANCE.md, "The
collector").

Three angles: (i) with the collector switched off, finished kernel
objects vanish the moment the last outside reference goes; (ii) under
``gc.DEBUG_SAVEALL`` whole fault-free workloads leave no kernel object
for the collector to find; (iii) the traced kernel, which keeps every
process alive in the sanitizer's context table by design, still
releases the same slots and detaches the same callbacks.
"""

import gc
import types
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.durability import DurabilityConfig
from repro.flash import device as device_module
from repro.flash.device import FlashDevice
from repro.flash.errors import ReadError
from repro.flash.geometry import FlashGeometry
from repro.ftl import MFTLBackend
from repro.harness import ClusterConfig, run_retwis_on_cluster
from repro.net import (AppError, FixedLatency, Network, RpcNode, RpcTimeout,
                       rpc)
from repro.sansim import TracedSimulator
from repro.semel.replication import replicate_to_backups
from repro.sim import Interrupt, SeededRng, Simulator, resources
from repro.sim.events import AnyOf, Event
from repro.sim.process import Process
from repro.workloads.microbench import run_kv_microbench

RELEASED_SLOTS = ("_generator", "_send", "_throw", "_resume_cb")


class WeakProcess(Process):
    """Kernel objects are slotted without ``__weakref__``; the tests
    observe their death through these otherwise identical subclasses."""

    __slots__ = ("__weakref__",)


class WeakAnyOf(AnyOf):
    __slots__ = ("__weakref__",)


@pytest.fixture
def no_collector():
    """Hold the cyclic collector off: only refcounting frees anything."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def saved_garbage():
    """Everything the collector finds inside the block lands in
    ``gc.garbage`` instead of being freed; yields that list."""
    # Flush what earlier tests dropped. A discarded cluster takes two
    # passes: the first closes its suspended generators, whose
    # ``finally`` blocks touch the rest, so those survive into a second.
    # The first pass may free nothing at all (everything it found sat
    # behind a generator finalizer), so it never ends the flush.
    gc.collect()
    while gc.collect():
        pass
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def kernel_garbage(garbage) -> Counter:
    """Type census of the kernel objects (events incl. processes,
    generators, bound methods) among ``garbage``."""
    kinds = (Event, types.GeneratorType, types.MethodType,
             types.BuiltinMethodType)
    return Counter(type(obj).__name__ for obj in garbage
                   if isinstance(obj, kinds))


def released(proc: Process) -> bool:
    return all(getattr(proc, slot) is None for slot in RELEASED_SLOTS)


class TestRefcountingFreesFinishedKernelObjects:
    @pytest.mark.parametrize("yields", [0, 1, 3])
    def test_returned_process_dies_with_its_last_reference(
            self, no_collector, yields):
        sim = Simulator()

        def body():
            for _ in range(yields):
                yield sim.timeout(1.0)
            return "done"

        proc = WeakProcess(sim, body())
        sim.run()
        assert proc.value == "done"
        ref = weakref.ref(proc)
        del proc
        assert ref() is None

    def test_joined_and_joining_processes_die(self, no_collector):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            return 7

        def parent(joined):
            value = yield joined
            return value + 1

        inner = WeakProcess(sim, child())
        outer = WeakProcess(sim, parent(inner))
        sim.run()
        assert outer.value == 8
        refs = [weakref.ref(inner), weakref.ref(outer)]
        del inner, outer
        assert [ref() for ref in refs] == [None, None]

    def test_any_of_winner_leaves_the_losing_timeout_alone(
            self, no_collector):
        sim = Simulator()
        event = sim.event()
        deadline = sim.timeout(1.0)
        cond = WeakAnyOf(sim, [event, deadline])
        event.succeed("won")
        sim.run(until=0.5)
        assert cond.value == {event: "won"}
        assert deadline.callbacks == []
        ref = weakref.ref(cond)
        del cond
        assert ref() is None
        # The loser still fires, with nobody listening: the event count
        # is the one the attached-forever condition produced.
        sim.run()
        assert deadline.processed
        assert (sim.now, sim.events_processed) == (1.0, 3)

    def test_any_of_built_on_a_fired_child_never_attaches(
            self, no_collector):
        sim = Simulator()
        fired = sim.event().succeed("early")
        sim.run()
        pending = sim.event()
        cond = WeakAnyOf(sim, [fired, pending])
        assert pending.callbacks == []
        sim.run()
        assert cond.value == {fired: "early"}
        ref = weakref.ref(cond)
        del cond
        assert ref() is None

    def test_failed_process_releases_its_slots(self, no_collector):
        sim = Simulator()

        def body():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        proc = sim.process(body())
        proc.defused = True
        sim.run()
        assert isinstance(proc.value, ValueError)
        assert released(proc)

    def test_unhandled_interrupt_releases_its_slots(self, no_collector):
        sim = Simulator()

        def body():
            yield sim.timeout(10.0)

        proc = sim.process(body())
        sim.run(until=1.0)
        proc.interrupt("stop")
        sim.run()
        assert isinstance(proc.value, Interrupt)
        assert released(proc)

    @pytest.mark.parametrize("reaction", ["dies", "recovers", "reraises"])
    def test_crashed_process_releases_its_slots(self, no_collector,
                                                reaction):
        sim = Simulator()

        def body():
            try:
                yield "not an event"
            except TypeError:
                if reaction == "recovers":
                    return "recovered"
                if reaction == "reraises":
                    raise KeyError("other")
                raise

        proc = sim.process(body())
        proc.defused = True
        sim.run()
        assert proc.processed
        assert released(proc)

    def test_all_of_that_failed_early_detaches_from_unfired_children(
            self, no_collector):
        sim = Simulator()
        first, second, third = sim.event(), sim.event(), sim.event()
        cond = sim.all_of([first, second, third])
        cond.defused = True
        second.fail(RuntimeError("boom"))
        sim.run()
        assert cond.ok is False
        assert first.callbacks == [] and third.callbacks == []


class WeakCall(rpc._Call):
    __slots__ = ("__weakref__",)


@pytest.fixture
def weak_calls(monkeypatch):
    """``RpcNode.call`` builds weak-referenceable call records."""
    monkeypatch.setattr(rpc, "_Call", WeakCall)


class TestCallRecordsDieByRefcounting:
    """A call record is referenced by the caller and, while pending, by
    ``RpcNode._pending``; its deadline carries only the request id. So
    once answered it dies with the caller's reference, whatever is
    still on the heap."""

    def _pair(self, sim):
        network = Network(sim, SeededRng(7), latency=FixedLatency(50e-6))
        client = RpcNode(sim, network, "client")
        server = RpcNode(sim, network, "server")

        def echo(payload):
            yield sim.timeout(1e-6)
            return payload

        def reject(payload):
            raise AppError("no")
            yield  # pragma: no cover - makes this a generator

        server.register("echo", echo)
        server.register("reject", reject)
        return network, client

    @pytest.mark.parametrize("outcome, error", [
        ("success", None), ("app-error", AppError),
        ("timeout", RpcTimeout), ("crash", Interrupt)])
    def test_record_dies_with_its_last_reference(
            self, no_collector, weak_calls, outcome, error):
        sim = Simulator()
        network, client = self._pair(sim)
        if outcome == "timeout":
            network.crash("server")
        method = "reject" if outcome == "app-error" else "echo"
        record = client.call("server", method, "x", timeout=1e-3,
                             retries=2)
        assert type(record) is WeakCall
        record.defused = True
        if outcome == "crash":
            sim.run(until=10e-6)
            client.crash()
        if outcome == "timeout":
            sim.run()
        else:
            # Decided well before its first deadline, which stays on
            # the heap without holding the record.
            sim.run(until=0.5e-3)
            assert sim.peek() == pytest.approx(1e-3)
        assert record.processed
        if error is None:
            assert record.value == "x"
        else:
            assert isinstance(record.value, error)
        assert client._pending == {}
        ref = weakref.ref(record)
        del record
        assert ref() is None
        sim.run()

    def test_quorum_round_leaves_nothing_behind(self, no_collector,
                                                weak_calls):
        sim = Simulator()
        network = Network(sim, SeededRng(7), latency=FixedLatency(50e-6))
        primary = RpcNode(sim, network, "primary")
        backups = [f"backup-{index}" for index in range(4)]
        for name in backups:
            RpcNode(sim, network, name).register(
                "ack", lambda payload: (yield sim.timeout(1e-6)))
        network.crash("backup-3")

        def round_trip():
            acks = yield from replicate_to_backups(
                primary, backups, "ack", None, need_acks=2,
                timeout=1e-3)
            return acks

        proc = WeakProcess(sim, round_trip())
        sim.run()
        assert proc.value == 2
        assert primary._pending == {}
        ref = weakref.ref(proc)
        del proc
        assert ref() is None


class WeakHold(resources._Hold):
    __slots__ = ("__weakref__",)


class WeakEvent(Event):
    __slots__ = ("__weakref__",)


@pytest.fixture
def weak_commands(monkeypatch):
    """Flash commands and their completion events become weak-
    referenceable; returns the list of weak references, one per
    command and one per completion, as they are made."""
    refs = []

    class WeakCommand(device_module._Command):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))
            refs.append(weakref.ref(self.done))

    monkeypatch.setattr(device_module, "_Command", WeakCommand)
    monkeypatch.setattr(device_module, "Event", WeakEvent)
    return refs


class TestHoldsAndCommandsDieByRefcounting:
    """A hold or a flash command is referenced only by the heap (and its
    queue while it waits) and by whoever yields it, so it dies with
    them: nothing ties it into a cycle."""

    def test_free_queued_and_abandoned_holds_die(self, no_collector,
                                                 monkeypatch):
        monkeypatch.setattr(resources, "_Hold", WeakHold)
        sim = Simulator()
        core = resources.Resource(sim, capacity=1)

        def holder(seconds):
            yield core.hold(seconds)

        def abandoning():
            try:
                yield core.hold(2.0)
            except Interrupt:
                pass

        refs = [weakref.ref(core.hold(1.0))]
        core.hold(1.0)
        sim.process(holder(1.0))
        quitter = sim.process(abandoning())
        sim.run(until=0.5)
        refs += [weakref.ref(hold) for hold in core._waiters]
        assert len(refs) == 4 and core.queued == 3
        quitter.interrupt("stop")
        sim.run()
        assert (sim.now, core.held_time) == (5.0, 5.0)
        assert [ref() for ref in refs] == [None] * 4

    def test_free_queued_and_failed_commands_die(self, no_collector,
                                                 weak_commands):
        sim = Simulator()
        device = FlashDevice(sim, FlashGeometry(
            page_size=4096, pages_per_block=4, num_blocks=8,
            num_channels=2), queue_depth=2)
        device.chip.program(0, 0, "v")
        outcomes = []

        def issue(block):
            try:
                outcomes.append((yield device.read_page(block, 0)))
            except ReadError:
                outcomes.append("failed")

        device.read_page(0, 0)
        # All on channel 0 with two slots: one waits for the channel and
        # two for a slot. Blocks 1 and 2 are unprogrammed.
        for block in (1, 2, 0):
            sim.process(issue(block))
        sim.run()
        assert outcomes == ["failed", "failed", "v"]
        assert len(weak_commands) == 8
        assert [ref() for ref in weak_commands] == [None] * 8


class TestWorkloadsLeaveNoKernelGarbage:
    def test_fault_free_retwis_on_a_durable_mftl_shard(self):
        config = ClusterConfig(
            num_shards=1, replicas_per_shard=3, num_clients=4,
            backend="mftl", populate_keys=200, seed=5,
            durability=DurabilityConfig())
        with saved_garbage() as garbage:
            result = run_retwis_on_cluster(
                config, alpha=0.6, duration=0.015, warmup=0.005)
            gc.collect()
            assert result.metrics.committed > 0
            assert kernel_garbage(garbage) == Counter()

    def test_kv_microbench_with_version_garbage_collection(self):
        geometry = FlashGeometry(page_size=4096, pages_per_block=32,
                                 num_blocks=40, num_channels=32)
        with saved_garbage() as garbage:
            sim = Simulator()
            backend = MFTLBackend(sim, FlashDevice(sim, geometry))
            result = run_kv_microbench(
                sim, backend, SeededRng(1), num_keys=2000, get_percent=25,
                duration=0.03, warmup=0.01, num_workers=32,
                version_window=0.005)
            gc.collect()
            assert result.requests > 0
            assert kernel_garbage(garbage) == Counter()


class TestTracedKernelReleasesTheSame:
    def test_finished_traced_process_releases_its_slots(self):
        sim = TracedSimulator()

        def body():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(body())
        sim.run()
        assert proc.value == "done"
        assert released(proc)

    @pytest.mark.parametrize("simulator", [Simulator, TracedSimulator])
    def test_condition_detaches_under_either_registration(self, simulator):
        # Plain kernels register ``_check``, traced ones ``_traced_check``.
        sim = simulator()
        event = sim.event()
        deadline = sim.timeout(1.0)
        cond = sim.any_of([event, deadline])
        assert len(deadline.callbacks) == 1
        event.succeed("won")
        sim.run(until=0.5)
        assert cond.value == {event: "won"}
        assert deadline.callbacks == []
        sim.run()
        assert (sim.now, sim.events_processed) == (1.0, 3)
