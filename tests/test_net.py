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
from repro.sim.tiebreak import FifoTieBreak, TracedSimulator
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
        model = JitteredLatency(base=50e-6)
        rng = SeededRng(1)
        draws = [model.sample(rng) for _ in range(500)]
        assert all(d > 0 for d in draws)
        mean = sum(draws) / len(draws)
        assert 0.7 * 50e-6 < mean < 1.5 * 50e-6

    @pytest.mark.parametrize("base, floors", [(50e-6, False), (1.2e-6, True)])
    def test_jittered_sample_is_the_stdlib_lognormal_draw(self, base, floors):
        """The inlined normal draw equals ``random``'s, draw for draw,
        and consumes the stream exactly as it does (1.2 us puts about
        a sixth of the draws under the 1 us floor)."""
        model = JitteredLatency(base=base)
        inlined, stdlib = SeededRng(3, "jitter"), SeededRng(3, "jitter")
        floored = 0
        for _ in range(10_000):
            expected = max(
                base * stdlib.lognormvariate(0.0, model.sigma), model.floor)
            assert model.sample(inlined) == expected
            floored += expected == model.floor
        assert inlined._random.getstate() == stdlib._random.getstate()
        assert (floored > 0) == floors


def register_pair(net, src="src", dst="dst"):
    """Register ``src`` and ``dst``; the list ``dst`` receives into."""
    received = []
    net.register(dst, received.append)
    net.register(src, lambda message: None)
    return received


class TestNetwork:
    def test_delivery_after_latency(self):
        sim = Simulator()
        net = make_net(sim)
        net.register("src", lambda message: None)
        received = []
        net.register("dst",
                     lambda message: received.append((sim.now, message)))
        net.send("src", "dst", "hello")
        sim.run()
        assert received == [(50e-6, "hello")]

    def test_unknown_destination_rejected(self):
        sim = Simulator()
        net = make_net(sim)
        net.register("src", lambda message: None)
        with pytest.raises(KeyError):
            net.send("src", "ghost", "x")

    def test_crashed_destination_drops(self):
        sim = Simulator()
        net = make_net(sim)
        received = register_pair(net)
        net.crash("dst")
        net.send("src", "dst", "lost")
        sim.run()
        assert received == []
        assert net.stats.messages_dropped == 1

    def test_crashed_source_drops(self):
        sim = Simulator()
        net = make_net(sim)
        received = register_pair(net)
        net.crash("src")
        net.send("src", "dst", "lost")
        sim.run()
        assert received == []

    def test_recover_resumes_delivery(self):
        sim = Simulator()
        net = make_net(sim)
        received = register_pair(net)
        net.crash("dst")
        net.send("src", "dst", "lost")
        net.recover("dst")
        net.send("src", "dst", "found")
        sim.run()
        assert received == ["found"]

    def test_crash_during_flight_drops(self):
        sim = Simulator()
        net = make_net(sim, latency=FixedLatency(1e-3))
        received = register_pair(net)
        net.send("src", "dst", "in-flight")
        sim.run(until=0.5e-3)
        net.crash("dst")
        sim.run()
        assert received == []

    def test_duplicates_injected(self):
        sim = Simulator()
        net = make_net(sim)
        net.install_faults().set_duplicate(0.5)
        received = register_pair(net)
        for i in range(100):
            net.send("src", "dst", i)
        sim.run()
        assert len(received) > 100
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
        result = sim.run_until_event(client.call("server", "echo", 42,
                                                 timeout=10e-3))
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
            calls = [client.call("server", "double", n,
                                 timeout=10e-3) for n in (5, 1, 3)]
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
                yield client.call("server", "commit", None, timeout=10e-3)
            except AppError as exc:
                return str(exc)

        result = sim.run_until_event(sim.process(caller()))
        assert result == "validation failed"

    def test_unknown_method_is_app_error(self):
        sim = Simulator()
        _, client, server = self._pair(sim)

        def caller():
            try:
                yield client.call("server", "nope", None, timeout=10e-3)
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
        net = make_net(sim)
        net.install_faults().set_duplicate(0.999)
        client = RpcNode(sim, net, "client")
        server = RpcNode(sim, net, "server")
        calls = []

        def count(payload):
            calls.append(payload)
            yield sim.timeout(1e-6)
            return len(calls)

        server.register("count", count)
        sim.run_until_event(client.call("server", "count", "x", timeout=10e-3))
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

    def test_no_suspend_echo_round_trip_costs_five_heap_events(self):
        sim = Simulator()
        _, client, server = self._pair(sim)

        def echo(payload):
            yield from ()
            return payload

        server.register("echo", echo)
        seq0 = sim._seq
        record = client.call("server", "echo", 7, timeout=1e-3)
        assert sim.run_until_event(record) == 7
        sim.run()
        # Request delivery (the handler runs inside it), the handler's
        # completion, reply delivery, the record, the spent deadline:
        # no caller process, waiter, AnyOf, inbox hand-off or bootstrap.
        assert sim._seq - seq0 == 5
        assert sim.events_processed == 5
        assert sim.now == pytest.approx(1e-3)

    def test_retries_resend_the_same_request_id_after_backoff(self):
        sim = Simulator()
        net = make_net(sim)
        client = RpcNode(sim, net, "client")
        requests = []
        net.register("mute", requests.append)  # never answers

        def caller():
            try:
                yield client.call("mute", "op", None, timeout=1e-3,
                                  retries=2)
            except RpcTimeout as exc:
                return str(exc), sim.now

        message, failed_at = sim.run_until_event(sim.process(caller()))
        assert "after 3 attempt(s)" in message
        assert len(requests) == 3
        assert len({request.request_id for request in requests}) == 1
        # Three deadlines plus two jittered backoffs in [0.5, 1.5) of
        # 1 ms and 2 ms.
        assert 3e-3 + 1.5e-3 <= failed_at < 3e-3 + 4.5e-3

    def test_response_during_backoff_is_dropped(self):
        sim = Simulator()
        _, client, server = self._pair(sim, latency=FixedLatency(1e-3))
        served = []

        def slow_once(payload):
            served.append(sim.now)
            yield sim.timeout(1.25e-3 if len(served) == 1 else 0.0)
            return len(served)

        server.register("op", slow_once)
        record = client.call("server", "op", None, timeout=3e-3,
                             retries=1)
        # The first reply lands at 3.25 ms, inside the backoff (at
        # least 0.5 ms) that follows the 3 ms deadline; only the
        # retry's reply counts.
        assert sim.run_until_event(record) == 2
        assert len(served) == 2

    def test_crash_fails_pending_calls_in_call_order(self):
        sim = Simulator()
        _, client, server = self._pair(sim)

        def hold(payload):
            yield sim.timeout(1.0)

        server.register("hold", hold)
        failed = []
        records = [client.call("server", "hold", n, timeout=10e-3,
                               retries=n) for n in (2, 0, 1)]
        for n, record in zip((2, 0, 1), records):
            record.callbacks.append(
                lambda event, n=n: failed.append((n, event.value)))
        sim.run(until=1e-3)
        client.crash()
        sim.run(until=2e-3)
        assert [n for n, _ in failed] == [2, 0, 1]
        assert all(isinstance(value, Interrupt) for _, value in failed)
        assert all(record.defused for record in records)
        # Deadlines that outlive the crash find nothing to expire.
        sim.run()
        assert len(failed) == 3

    def test_crash_cancels_the_timers_of_the_calls_it_fails(self):
        sim = Simulator()
        net, client, _ = self._pair(sim)
        net.register("mute", lambda request: None)  # never answers
        backing_off = client.call("mute", "op", timeout=1e-3, retries=2)
        waiting = client.call("mute", "op", timeout=10e-3)
        sim.run(until=1.2e-3)
        assert not backing_off.in_flight  # its timer is the backoff
        timers = [backing_off.timer, waiting.timer]
        client.crash()
        assert [timer.callbacks for timer in timers] == [None, None]
        assert sim._cancelled == 2
        sent = net.stats.messages_sent
        sim.run()
        assert net.stats.messages_sent == sent and sim._cancelled == 0
        assert backing_off.attempt == 1

    def test_answered_deadlines_leave_the_heap(self):
        sim = Simulator()
        _, client, server = self._pair(sim, latency=FixedLatency(10e-6))

        def echo(payload):
            yield from ()
            return payload

        server.register("echo", echo)
        heap_lengths = []

        def caller():
            for n in range(2000):
                reply = yield client.call("server", "echo", n,
                                          timeout=10e-3)
                assert reply == n
                heap_lengths.append(len(sim._heap))

        sim.run_until_event(sim.process(caller()))
        assert max(heap_lengths) < 200
        assert sim._compacted > 0

    def test_restart_requires_a_crash(self):
        sim = Simulator()
        _, client, _ = self._pair(sim)
        with pytest.raises(RuntimeError, match="crash\\(\\) first"):
            client.restart()
        client.crash()
        client.restart()
        with pytest.raises(RuntimeError, match="crash\\(\\) first"):
            client.restart()

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

    def _faulty_net(self, sim, latency, receive):
        # A blocked edge between two ghost nodes: the table is active
        # and is consulted for every tx -> rx message.
        network = make_net(sim, latency=latency)
        network.register("rx", receive)
        network.register("tx", lambda message: None)
        faults = network.install_faults()
        faults.block("ghost-a", "ghost-b")
        assert faults.active
        return network

    def _run_exchange(self, sim):
        received = []
        network = self._faulty_net(
            sim, JitteredLatency(base=50e-6),
            lambda message: received.append((repr(sim.now), message)))

        def sender():
            for index in range(20):
                network.send("tx", "rx", ("msg", index))
                yield sim.timeout(20e-6)

        sim.process(sender())
        sim.run(until=1.0)
        assert network.stats.messages_delivered == 20
        return received

    def test_active_fault_table_costs_one_heap_entry_per_message(self):
        sim = Simulator()
        received = []
        network = self._faulty_net(sim, FixedLatency(1e-3), received.append)
        stats = network.stats
        seq0 = sim._seq
        network.send("tx", "rx", "late")
        # One arrival entry, no Process bootstrap / timeout / put chain.
        assert sim._seq - seq0 == 1
        assert sim.peek() == 1e-3
        sim.run()
        assert sim._seq - seq0 == 1
        assert sim.now == 1e-3
        assert received == ["late"]
        assert (stats.messages_delivered, stats.messages_dropped) == (1, 0)
        assert list(stats.bytes_by_edge) == [("tx", "rx")]
        assert stats.total_bytes == stats.bytes_by_edge[("tx", "rx")] > 0
        # A crash while the next message is in flight still drops it.
        network.send("tx", "rx", "doomed")
        network.crash("tx")
        sim.run()
        assert (stats.messages_delivered, stats.messages_dropped) == (1, 1)
        assert received == ["late"]

    def test_traced_kernel_sees_the_same_receive_log_under_faults(self):
        traced = TracedSimulator(tie_break=FifoTieBreak())
        assert self._run_exchange(Simulator()) == self._run_exchange(traced)

    def test_fast_path_drops_on_crash_during_flight(self):
        sim = Simulator()
        network = make_net(sim, latency=FixedLatency(1e-3))
        received = register_pair(network, "tx", "rx")
        network.send("tx", "rx", "doomed")
        network.crash("rx")
        sim.run()
        assert network.stats.messages_dropped == 1
        assert network.stats.messages_delivered == 0
        assert received == []

    def test_fast_path_hands_the_message_to_the_receiver(self):
        sim = Simulator()
        network = make_net(sim, latency=FixedLatency(1e-3))
        arrivals = []
        network.register("rx",
                         lambda message: arrivals.append((sim.now, message)))
        network.register("tx", lambda message: None)
        network.send("tx", "rx", "early")
        sim.run()
        assert arrivals == [(1e-3, "early")]
        assert network.stats.messages_delivered == 1

    def test_total_bytes_tracks_per_edge_sum(self):
        sim = Simulator()
        network = make_net(sim)
        register_pair(network, "tx", "rx")
        for index in range(5):
            network.send("tx", "rx", ("payload", index))
        sim.run()
        assert network.stats.total_bytes == \
            sum(network.stats.bytes_by_edge.values())
        assert network.stats.total_bytes > 0
