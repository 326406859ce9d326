"""Unit tests for the sansim happens-before sanitizer.

End-to-end exploration (the seeded CTP-race fixture, reconciliation,
CLI) lives in ``test_sansim_explorer.py``; schedule-equivalence against
the golden fingerprints lives in ``test_sansim_fingerprints.py``. This
file covers the runtime pieces in isolation: vector-clock joins, the
SAN001/SAN002 checks, lock suppression, the clocks a handler started on
arrival and a nested start inherit, tie-break policies, witness
identity, and the traced kernel's lockstep behaviour.
"""

import pytest

from repro.net import FixedLatency, Network, RpcNode
from repro.sansim import (
    FifoTieBreak,
    RandomTieBreak,
    SanitizerRuntime,
    TargetedTieBreak,
    TracedSimulator,
    TrialSpec,
    Witness,
)
from repro.sansim.explorer import parse_replay_spec
from repro.sansim.policies import make_policy
from repro.sansim.runtime import _join
from repro.sansim.witnesses import Site, canonical_location
from repro.sim import SeededRng
from repro.sim.core import Simulator

LOC = ("txn", "srv-a", "t1")
LOCK = ("inflight", "srv-a", "t1")


class TestClockJoin:
    def test_join_empty_returns_base(self):
        base = {1: 3}
        assert _join(base, {}) is base

    def test_join_covered_returns_base(self):
        base = {1: 3, 2: 5}
        assert _join(base, {1: 2, 2: 5}) is base

    def test_join_merges_pointwise_max(self):
        base = {1: 3, 2: 1}
        other = {2: 4, 3: 7}
        merged = _join(base, other)
        assert merged == {1: 3, 2: 4, 3: 7}
        assert base == {1: 3, 2: 1}  # immutability: fresh dict


class _Proc:
    """Stand-in process object for driving the runtime hooks directly."""


def _resume(rt, proc):
    return rt.begin_resume(proc)


class TestRuntimeChecks:
    def _race(self, reader_lock=False, writer_lock=False,
              ordered=False, exclusive=False, relaxed=False):
        """Check-suspend-write with a foreign write in the window."""
        rt = SanitizerRuntime()
        reader, writer = _Proc(), _Proc()

        ctx_r = _resume(rt, reader)
        rt.begin_section("ctp")
        rt.on_read(LOC)
        rt.end_resume(ctx_r, 0, 0)

        ctx_w = _resume(rt, writer)
        rt.begin_section("decide")
        if writer_lock:
            rt.on_acquire(LOCK)
        rt.on_write(LOC, relaxed=relaxed)
        if writer_lock:
            rt.on_release(LOCK)
        # Attribute heap seq 7 to the writer's clock so an "ordered"
        # reader can resume under it (a message handoff).
        rt.end_resume(ctx_w, 7, 8)

        if ordered:
            rt.on_pop(7, object())
        ctx_r2 = _resume(rt, reader)
        if reader_lock:
            rt.on_acquire(LOCK)
        rt.on_write(LOC, exclusive=exclusive)
        rt.end_resume(ctx_r2, 0, 0)
        return rt

    def test_stale_guard_and_unordered_write(self):
        rt = self._race()
        rules = sorted(w.rule_id for w in rt.witnesses)
        assert rules == ["SAN001", "SAN002"]
        san1 = next(w for w in rt.witnesses if w.rule_id == "SAN001")
        assert san1.location == "txn@srv-a"
        assert "stale-guard" in san1.message
        assert canonical_location(LOC) in rt.flagged_locations

    def test_common_lock_suppresses_both(self):
        rt = self._race(reader_lock=True, writer_lock=True)
        assert rt.witnesses == []

    def test_writer_only_lock_does_not_suppress(self):
        rt = self._race(writer_lock=True)
        assert sorted(w.rule_id for w in rt.witnesses) == \
            ["SAN001", "SAN002"]

    def test_ordered_write_no_san002(self):
        # The second writer resumed under the first writer's clock: the
        # writes are ordered, but the guard is still stale (it was never
        # re-read after the suspension) so SAN001 stands.
        rt = self._race(ordered=True)
        assert [w.rule_id for w in rt.witnesses] == ["SAN001"]

    def test_reread_refreshes_guard(self):
        rt = SanitizerRuntime()
        reader, writer = _Proc(), _Proc()
        ctx_r = _resume(rt, reader)
        rt.begin_section("ctp")
        rt.on_read(LOC)
        rt.end_resume(ctx_r, 0, 0)
        ctx_w = _resume(rt, writer)
        rt.on_write(LOC)
        rt.end_resume(ctx_w, 7, 8)
        rt.on_pop(7, object())  # handoff: reader is ordered after writer
        ctx_r2 = _resume(rt, reader)
        rt.on_read(LOC)  # the re-check the fixed CTP performs
        rt.on_write(LOC)
        rt.end_resume(ctx_r2, 0, 0)
        assert rt.witnesses == []

    def test_relaxed_writes_never_flagged(self):
        rt = self._race(relaxed=False)  # acting write still checks...
        assert rt.witnesses != []
        rt2 = SanitizerRuntime()
        a, b = _Proc(), _Proc()
        ctx_a = _resume(rt2, a)
        rt2.on_write(LOC, relaxed=True)
        rt2.end_resume(ctx_a, 0, 0)
        ctx_b = _resume(rt2, b)
        rt2.on_write(LOC, relaxed=True)
        rt2.end_resume(ctx_b, 0, 0)
        assert rt2.witnesses == []

    def test_exclusive_reports_single_apply(self):
        rt = self._race(exclusive=True)
        san2 = next(w for w in rt.witnesses if w.rule_id == "SAN002")
        assert "single-apply invariant violated" in san2.message

    def test_same_context_rewrites_not_flagged(self):
        rt = SanitizerRuntime()
        p = _Proc()
        ctx = _resume(rt, p)
        rt.begin_section("put")
        rt.on_read(LOC)
        rt.on_write(LOC)
        rt.on_write(LOC)
        rt.end_resume(ctx, 0, 0)
        assert rt.witnesses == []

    def test_delivery_origin_reaches_a_handler_started_on_arrival(self):
        rt = SanitizerRuntime()
        writer, handler = _Proc(), _Proc()
        ctx_w = _resume(rt, writer)
        rt.on_write(LOC)
        writer_clock = ctx_w.clock
        rt.end_resume(ctx_w, 7, 8)
        rt.on_pop(7, object())  # delivery fires under the sender clock
        ctx_h = _resume(rt, handler)  # started inside the delivery
        assert ctx_h.clock == writer_clock

    def test_nested_start_inherits_the_starters_clock(self):
        rt = SanitizerRuntime()
        starter, child = _Proc(), _Proc()
        rt.on_pop(3, object())  # an unrelated, empty ambient
        ctx_s = _resume(rt, starter)
        rt.on_write(LOC)
        ctx_c = _resume(rt, child)  # Simulator.start inside the step
        assert ctx_c.clock == ctx_s.clock != {}
        rt.end_resume(ctx_c, 0, 0)
        rt.end_resume(ctx_s, 0, 0)

    def test_stats_shape(self):
        rt = self._race()
        stats = rt.stats()
        assert stats["tracked_reads"] == 1
        assert stats["tracked_writes"] == 2
        assert stats["witnesses"] == 2
        assert stats["locations"] == 1


class TestPolicies:
    def test_fifo_always_first(self):
        policy = FifoTieBreak()
        assert policy.choose([(0.0, 1, None), (0.0, 2, None)]) == 0

    def test_random_is_seed_deterministic(self):
        tied = [(0.0, seq, None) for seq in range(5)]
        a = [RandomTieBreak(3).choose(tied) for _ in range(20)]
        b = [RandomTieBreak(3).choose(tied) for _ in range(20)]
        c = [RandomTieBreak(4).choose(tied) for _ in range(20)]
        assert a == b
        assert a != c
        assert all(0 <= i < 5 for i in a)

    def test_targeted_prefers_hot_seqs(self):
        rt = SanitizerRuntime()
        rt.hot_seqs.update({11, 12})
        policy = TargetedTieBreak(1, rt, bias=1.0)
        tied = [(0.0, 10, None), (0.0, 11, None), (0.0, 12, None)]
        picks = {policy.choose(tied) for _ in range(30)}
        assert picks <= {1, 2}

    def test_make_policy_validates(self):
        assert make_policy("fifo", 0).name == "fifo"
        assert make_policy("random", 1).name == "random"
        with pytest.raises(ValueError, match="needs the trial's tracer"):
            make_policy("targeted", 1)
        with pytest.raises(ValueError, match="unknown tie-break"):
            make_policy("bogus", 0)


class TestWitnessIdentity:
    def _witness(self, line=10, rule_id="SAN001"):
        return Witness(
            rule_id=rule_id, location="txn@srv-a",
            message="stale-guard write on txn@srv-a",
            acting=Site(path="a.py", line=line, function="apply"),
            prior=Site(path="b.py", line=5, function="check"))

    def test_fingerprint_is_line_free(self):
        assert self._witness(line=10).fingerprint == \
            self._witness(line=99).fingerprint

    def test_fingerprint_distinguishes_rules(self):
        assert self._witness().fingerprint != \
            self._witness(rule_id="SAN002").fingerprint

    def test_stamp_and_replay_command(self):
        w = self._witness().stamped("ctp-race", 3, "random", 7)
        assert w.workload == "ctp-race"
        assert w.replay_command == \
            "python -m repro sansim ctp-race --replay ctp-race:3:random:7"

    def test_to_json_shape(self):
        w = self._witness().stamped("ctp-race", 0, "fifo", 0)
        payload = w.to_json()
        assert payload["rule"] == "SAN001"
        assert payload["replay"]["command"] == w.replay_command
        assert payload["replay"]["trial"] == 0
        assert payload["acting"]["function"] == "apply"
        assert payload["fingerprint"] == w.fingerprint

    def test_canonical_location(self):
        assert canonical_location(("txn", "srv-a", "t1")) == "txn@srv-a"
        assert canonical_location(("dlock", "alpha")) == "dlock@alpha"


class TestTrialSpec:
    def test_render_parse_roundtrip(self):
        spec = TrialSpec(workload="ctp-race", trial=4, policy="random",
                         seed=9)
        assert parse_replay_spec(spec.render()) == spec
        assert spec.policy_seed == 9 * 10_000 + 4

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="bad replay spec"):
            parse_replay_spec("ctp-race:0:fifo")
        with pytest.raises(ValueError, match="unknown workload"):
            parse_replay_spec("nope:0:fifo:0")


def _run_schedule(sim):
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append((name, sim.now))

    delays = [0.003, 0.001, 0.001, 0.002, 0.001, 0.002]
    for index, delay in enumerate(delays):
        sim.process(proc(f"p{index}", delay))
    sim.run()
    return order


class TestTracedKernel:
    def test_fifo_is_lockstep_with_plain_kernel(self):
        plain_sim = Simulator()
        plain = _run_schedule(plain_sim)
        traced_sim = TracedSimulator(tracer=SanitizerRuntime(),
                                     tie_break=FifoTieBreak())
        traced = _run_schedule(traced_sim)
        assert traced == plain
        assert traced_sim.events_processed == plain_sim.events_processed

    def test_random_tie_break_permutes_but_loses_nothing(self):
        plain = _run_schedule(Simulator())
        shuffled = _run_schedule(TracedSimulator(
            tracer=SanitizerRuntime(), tie_break=RandomTieBreak(2)))
        assert sorted(shuffled) == sorted(plain)

    def test_random_tie_break_is_replayable(self):
        first = _run_schedule(TracedSimulator(
            tracer=SanitizerRuntime(), tie_break=RandomTieBreak(5)))
        second = _run_schedule(TracedSimulator(
            tracer=SanitizerRuntime(), tie_break=RandomTieBreak(5)))
        assert first == second

    def _rpc_pair(self, sim):
        network = Network(sim, SeededRng(7), latency=FixedLatency(50e-6))
        return RpcNode(sim, network, "client"), RpcNode(sim, network,
                                                        "server")

    def test_a_round_trip_orders_the_writes_around_it(self):
        # Caller write -> request -> handler writes (before and after
        # a suspension) -> reply -> caller write: every edge is a
        # delivery event's origin, with no courier in between.
        sim = TracedSimulator()
        tracer = sim.tracer
        client, server = self._rpc_pair(sim)

        def touch(payload):
            tracer.on_write(LOC)
            yield sim.timeout(1e-6)
            tracer.on_write(LOC)
            return payload

        server.register("touch", touch)

        def caller():
            tracer.on_write(LOC)
            yield client.call("server", "touch", 1)
            tracer.begin_section("after")  # a new guard window
            tracer.on_write(LOC)

        sim.run_until_event(sim.process(caller()))
        assert tracer.writes == 4
        assert tracer.witnesses == []

    def test_a_started_process_is_ordered_after_its_starter(self):
        sim = TracedSimulator()
        tracer = sim.tracer

        def child():
            tracer.on_write(LOC)
            yield sim.timeout(1e-6)

        def starter():
            tracer.on_write(LOC)
            yield sim.start(child())

        def stranger():
            tracer.on_write(LOC)
            yield sim.timeout(0)

        sim.run_until_event(sim.process(starter()))
        assert tracer.witnesses == []
        # Control: a write from an unrelated process is still a race.
        sim.run_until_event(sim.process(stranger()))
        assert [w.rule_id for w in tracer.witnesses] == ["SAN002"]

    def test_plain_simulator_has_no_tracer(self):
        # The zero-cost seam: `tracer` is a class attribute on the base
        # Simulator, so untraced runs pay one attribute load per site.
        assert Simulator.tracer is None
        assert Simulator().tracer is None
