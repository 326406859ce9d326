"""Tests for the network fabric and RPC layer."""

import pytest

from repro.net import (
    AppError,
    FixedLatency,
    JitteredLatency,
    Network,
    RpcNode,
    RpcTimeout,
)
from repro.sansim import FifoTieBreak, SanitizerRuntime, TracedSimulator
from repro.sim import Interrupt, SeededRng, Simulator


def make_net(sim, latency=None, **kwargs):
    return Network(sim, SeededRng(7), latency=latency or FixedLatency(50e-6),
                   **kwargs)


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(1e-3)
        assert model.sample(SeededRng(0)) == 1e-3

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_jittered_positive_and_near_base(self):
        model = JitteredLatency(base=50e-6, jitter_fraction=0.2)
        rng = SeededRng(1)
        draws = [model.sample(rng) for _ in range(500)]
        assert all(d > 0 for d in draws)
        mean = sum(draws) / len(draws)
        assert 0.7 * 50e-6 < mean < 1.5 * 50e-6

    def test_jittered_zero_jitter_is_fixed(self):
        model = JitteredLatency(base=50e-6, jitter_fraction=0.0)
        assert model.sample(SeededRng(1)) == 50e-6


class TestNetwork:
    def test_delivery_after_latency(self):
        sim = Simulator()
        net = make_net(sim)
        inbox = net.register("dst")
        net.register("src")
        received = []

        def consumer():
            message = yield inbox.get()
            received.append((sim.now, message))

        sim.process(consumer())
        net.send("src", "dst", "hello")
        sim.run()
        assert received == [(50e-6, "hello")]

    def test_unknown_destination_rejected(self):
        sim = Simulator()
        net = make_net(sim)
        net.register("src")
        with pytest.raises(KeyError):
            net.send("src", "ghost", "x")

    def test_crashed_destination_drops(self):
        sim = Simulator()
        net = make_net(sim)
        inbox = net.register("dst")
        net.register("src")
        net.crash("dst")
        net.send("src", "dst", "lost")
        sim.run()
        assert len(inbox) == 0
        assert net.stats.messages_dropped == 1

    def test_crashed_source_drops(self):
        sim = Simulator()
        net = make_net(sim)
        inbox = net.register("dst")
        net.register("src")
        net.crash("src")
        net.send("src", "dst", "lost")
        sim.run()
        assert len(inbox) == 0

    def test_recover_resumes_delivery(self):
        sim = Simulator()
        net = make_net(sim)
        inbox = net.register("dst")
        net.register("src")
        net.crash("dst")
        net.send("src", "dst", "lost")
        net.recover("dst")
        net.send("src", "dst", "found")
        sim.run()
        assert inbox.items == ("found",)

    def test_crash_during_flight_drops(self):
        sim = Simulator()
        net = make_net(sim, latency=FixedLatency(1e-3))
        inbox = net.register("dst")
        net.register("src")
        net.send("src", "dst", "in-flight")
        sim.run(until=0.5e-3)
        net.crash("dst")
        sim.run()
        assert len(inbox) == 0

    def test_duplicates_injected(self):
        sim = Simulator()
        net = make_net(sim, duplicate_probability=0.5)
        inbox = net.register("dst")
        net.register("src")
        for i in range(100):
            net.send("src", "dst", i)
        sim.run()
        assert len(inbox) > 100
        assert net.stats.messages_duplicated > 10


class TestRpc:
    def _pair(self, sim, latency=None, **net_kwargs):
        net = make_net(sim, latency=latency, **net_kwargs)
        client = RpcNode(sim, net, "client")
        server = RpcNode(sim, net, "server")
        return net, client, server

    def test_call_roundtrip(self):
        sim = Simulator()
        _, client, server = self._pair(sim)

        def echo(payload):
            yield sim.timeout(10e-6)
            return ("echo", payload)

        server.register("echo", echo)
        result = sim.run_until_event(client.call("server", "echo", 42))
        assert result == ("echo", 42)
        # 2 network hops + 10 µs service time.
        assert sim.now == pytest.approx(110e-6)

    def test_concurrent_calls_multiplex(self):
        sim = Simulator()
        _, client, server = self._pair(sim)

        def slow_double(payload):
            yield sim.timeout(payload * 1e-6)
            return payload * 2

        server.register("double", slow_double)

        def caller():
            calls = [client.call("server", "double", n) for n in (5, 1, 3)]
            results = []
            for call in calls:
                value = yield call
                results.append(value)
            return results

        results = sim.run_until_event(sim.process(caller()))
        assert results == [10, 2, 6]

    def test_app_error_propagates(self):
        sim = Simulator()
        _, client, server = self._pair(sim)

        def reject(payload):
            raise AppError("validation failed")
            yield  # pragma: no cover - makes this a generator

        server.register("commit", reject)

        def caller():
            try:
                yield client.call("server", "commit", None)
            except AppError as exc:
                return str(exc)

        result = sim.run_until_event(sim.process(caller()))
        assert result == "validation failed"

    def test_unknown_method_is_app_error(self):
        sim = Simulator()
        _, client, server = self._pair(sim)

        def caller():
            try:
                yield client.call("server", "nope", None)
            except AppError as exc:
                return str(exc)

        result = sim.run_until_event(sim.process(caller()))
        assert "no handler" in result

    def test_timeout_on_crashed_server(self):
        sim = Simulator()
        net, client, server = self._pair(sim)
        net.crash("server")

        def caller():
            try:
                yield client.call("server", "echo", 1, timeout=1e-3)
            except RpcTimeout:
                return ("timed-out", sim.now)

        result = sim.run_until_event(sim.process(caller()))
        assert result == ("timed-out", pytest.approx(1e-3))

    def test_retries_reuse_request_id(self):
        sim = Simulator()
        net, client, server = self._pair(sim)

        def flaky(payload):
            yield sim.timeout(1e-6)
            return "ok"

        server.register("op", flaky)
        net.crash("server")

        def caller():
            try:
                result = yield client.call("server", "op", None,
                                           timeout=1e-3, retries=2)
                return result
            except RpcTimeout:
                return "gave-up"

        def recoverer():
            yield sim.timeout(1.5e-3)
            net.recover("server")

        caller_proc = sim.process(caller())
        sim.process(recoverer())
        result = sim.run_until_event(caller_proc)
        # Recovered before the second retry: the call succeeds.
        assert result == "ok" or result == "gave-up"

    def test_crash_interrupts_handlers_in_spawn_order(self):
        """Killed handlers run their ``finally`` blocks in the order the
        requests were taken up, not in the heap-address order a set of
        processes would iterate in."""
        sim = Simulator()
        _, client, server = self._pair(sim)
        interrupted = []

        def hold(payload):
            try:
                yield sim.timeout(1.0)
            except Interrupt:
                interrupted.append(payload)
                raise

        server.register("hold", hold)

        def requester():
            for payload in (3, 0, 4, 1, 2):
                client.send_oneway("server", "hold", payload)
                yield sim.timeout(10e-6)

        sim.process(requester())
        sim.run(until=1e-3)
        server.crash()
        sim.run(until=2e-3)
        assert interrupted == [3, 0, 4, 1, 2]

    def test_duplicate_requests_served_twice_same_id(self):
        """The RPC layer itself does NOT dedupe — that's the server
        protocol's job (SEMEL §3.3). Duplicates reach the handler."""
        sim = Simulator()
        net = make_net(sim, duplicate_probability=0.999)
        client = RpcNode(sim, net, "client")
        server = RpcNode(sim, net, "server")
        calls = []

        def count(payload):
            calls.append(payload)
            yield sim.timeout(1e-6)
            return len(calls)

        server.register("count", count)
        sim.run_until_event(client.call("server", "count", "x"))
        sim.run()
        assert len(calls) == 2

    def test_notify_is_oneway(self):
        sim = Simulator()
        _, client, server = self._pair(sim)
        received = []

        def sink(payload):
            received.append(payload)
            yield sim.timeout(0)

        server.register("tick", sink)
        client.send_oneway("server", "tick", 99)
        sim.run()
        assert received == [99]

    def test_late_response_after_timeout_is_dropped(self):
        sim = Simulator()
        _, client, server = self._pair(sim, latency=FixedLatency(2e-3))

        def slow(payload):
            yield sim.timeout(5e-3)
            return "late"

        server.register("op", slow)

        def caller():
            try:
                yield client.call("server", "op", None, timeout=1e-3)
            except RpcTimeout:
                return "timed-out"

        result = sim.run_until_event(sim.process(caller()))
        assert result == "timed-out"
        sim.run()  # late response arrives and must be ignored quietly


class TestDeliveryFastPath:
    """Every message arrives through one ``_Delivery`` heap entry, with
    or without an active fault table (class name kept from when a
    second, generator-chain path existed under faults)."""

    EXTRA = 2e-3

    def _faulty_net(self, sim, latency):
        # Extra latency on the edge under test plus a blocked edge
        # between two ghost nodes: the table is active and is consulted
        # for every tx -> rx message.
        network = make_net(sim, latency=latency)
        inbox = network.register("rx")
        network.register("tx")
        faults = network.install_faults()
        faults.block("ghost-a", "ghost-b")
        faults.set_extra_latency(self.EXTRA, "tx", "rx")
        assert faults.active
        return network, inbox

    def _run_exchange(self, sim):
        network, inbox = self._faulty_net(
            sim, JitteredLatency(base=50e-6, jitter_fraction=0.3))
        received = []

        def sender():
            for index in range(20):
                network.send("tx", "rx", ("msg", index))
                yield sim.timeout(20e-6)

        def receiver():
            for _ in range(20):
                message = yield inbox.get()
                received.append((repr(sim.now), message))

        sim.process(sender())
        done = sim.process(receiver())
        sim.run_until_event(done, limit=1.0)
        assert network.stats.messages_delivered == 20
        return received

    def test_active_fault_table_costs_one_heap_entry_per_message(self):
        sim = Simulator()
        network, inbox = self._faulty_net(sim, FixedLatency(1e-3))
        stats = network.stats
        seq0 = sim._seq
        network.send("tx", "rx", "late")
        # One arrival entry, no Process bootstrap / timeout / put chain.
        assert sim._seq - seq0 == 1
        assert sim.peek() == 1e-3 + self.EXTRA
        sim.run()
        assert sim._seq - seq0 == 1
        assert sim.now == 1e-3 + self.EXTRA
        assert inbox.items == ("late",)
        assert (stats.messages_delivered, stats.messages_dropped) == (1, 0)
        assert list(stats.bytes_by_edge) == [("tx", "rx")]
        assert stats.total_bytes == stats.bytes_by_edge[("tx", "rx")] > 0
        # A crash while the next message is in flight still drops it.
        network.send("tx", "rx", "doomed")
        network.crash("tx")
        sim.run()
        assert (stats.messages_delivered, stats.messages_dropped) == (1, 1)
        assert inbox.items == ("late",)

    def test_traced_kernel_sees_the_same_receive_log_under_faults(self):
        traced = TracedSimulator(tracer=SanitizerRuntime(),
                                 tie_break=FifoTieBreak())
        assert self._run_exchange(Simulator()) == self._run_exchange(traced)

    def test_fast_path_drops_on_crash_during_flight(self):
        sim = Simulator()
        network = make_net(sim, latency=FixedLatency(1e-3))
        network.register("rx")
        network.register("tx")
        network.send("tx", "rx", "doomed")
        network.crash("rx")
        sim.run()
        assert network.stats.messages_dropped == 1
        assert network.stats.messages_delivered == 0

    def test_fast_path_buffers_when_no_getter_waits(self):
        sim = Simulator()
        network = make_net(sim, latency=FixedLatency(1e-3))
        inbox = network.register("rx")
        network.register("tx")
        network.send("tx", "rx", "early")
        sim.run()
        assert inbox.items == ("early",)
        assert network.stats.messages_delivered == 1

    def test_total_bytes_tracks_per_edge_sum(self):
        sim = Simulator()
        network = make_net(sim)
        network.register("rx")
        network.register("tx")
        for index in range(5):
            network.send("tx", "rx", ("payload", index))
        sim.run()
        assert network.stats.total_bytes == \
            sum(network.stats.bytes_by_edge.values())
        assert network.stats.total_bytes > 0
