"""Nemesis subsystem tests: link faults, clock anomalies, RPC backoff,
fault plans, protocol hardening under faults, and post-heal audits."""

import pytest

from repro.clocks.anomalies import FaultyClock
from repro.harness import (
    NemesisPlan,
    clock_storm,
    partition_primary_from_backups,
    run_audit,
    run_nemesis,
    nemesis_config,
)
from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import (
    ABORTED,
    COMMITTED,
    PREPARED,
    MilanaClient,
    TransactionRecord,
)
from repro.net.faults import LinkFaults
from repro.net.rpc import RpcTimeout
from repro.sim import SeededRng
from repro.verify import TxnEntry
from repro.versioning import Version
from repro.wire import MilanaTxnStatus


def make_cluster(**overrides):
    defaults = dict(num_shards=1, replicas_per_shard=3, num_clients=2,
                    backend="dram", clock_preset="perfect", seed=23,
                    populate_keys=20)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


class TestLinkFaults:
    def test_block_is_directional(self):
        faults = LinkFaults(SeededRng(1))
        faults.block("a", "b")
        dropped, _ = faults.apply("a", "b")
        assert dropped
        dropped, _ = faults.apply("b", "a")
        assert not dropped
        assert faults.stats.messages_blocked == 1

    def test_partition_symmetric_and_heal(self):
        faults = LinkFaults(SeededRng(1))
        faults.partition(["a"], ["b", "c"])
        assert faults.is_blocked("a", "b")
        assert faults.is_blocked("b", "a")
        assert not faults.is_blocked("b", "c")
        faults.heal_partition(["a"], ["b", "c"])
        assert not faults.active

    def test_asymmetric_partition_blocks_one_direction(self):
        faults = LinkFaults(SeededRng(1))
        faults.partition(["a"], ["b"], symmetric=False)
        assert faults.is_blocked("a", "b")
        assert not faults.is_blocked("b", "a")

    def test_loss_is_probabilistic_and_seeded(self):
        outcomes = []
        for _ in range(2):
            faults = LinkFaults(SeededRng(77))
            faults.set_loss(0.5)
            outcomes.append([faults.apply("a", "b")[0]
                             for _ in range(100)])
        assert outcomes[0] == outcomes[1]
        lost = sum(outcomes[0])
        assert 20 < lost < 80
        assert faults.stats.messages_lost == lost

    def test_extra_latency_reported_not_dropped(self):
        faults = LinkFaults(SeededRng(1))
        faults.set_extra_latency(2e-3, "a", "b")
        dropped, extra = faults.apply("a", "b")
        assert not dropped
        assert extra == 2e-3
        assert faults.apply("b", "a") == (False, 0.0)
        assert faults.stats.messages_delayed == 1

    def test_heal_clears_everything(self):
        faults = LinkFaults(SeededRng(1))
        faults.block("a", "b")
        faults.set_loss(0.1)
        faults.set_extra_latency(1e-3)
        assert faults.active
        faults.heal()
        assert not faults.active
        assert faults.apply("a", "b") == (False, 0.0)


class TestNetworkFaultIntegration:
    def test_faults_lazy_until_installed(self):
        cluster = make_cluster()
        assert cluster.network.faults is None

    def test_blocked_link_times_out_and_heals(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        faults = cluster.network.install_faults()
        faults.block(client.node.name, "srv-0-0")

        def probe():
            try:
                yield client.node.call(
                    "srv-0-0", "milana.txn_status",
                    MilanaTxnStatus(txn_id="t"), timeout=5e-3)
            except RpcTimeout:
                return "timeout"
            return "ok"

        assert cluster.sim.run_until_event(
            cluster.sim.process(probe())) == "timeout"
        faults.heal()
        assert cluster.sim.run_until_event(
            cluster.sim.process(probe())) == "ok"

    def test_can_communicate_sees_blocks_and_crashes(self):
        cluster = make_cluster()
        network = cluster.network
        assert network.can_communicate("srv-0-0", "srv-0-1")
        network.install_faults().block("srv-0-0", "srv-0-1")
        assert not network.can_communicate("srv-0-0", "srv-0-1")
        assert network.can_communicate("srv-0-1", "srv-0-0")
        network.crash("srv-0-1")
        assert not network.can_communicate("srv-0-1", "srv-0-0")


class TestFaultyClock:
    def test_ensemble_clocks_are_wrapped(self):
        cluster = make_cluster()
        clock = cluster.clock_ensemble.clock_for("client-0")
        assert isinstance(clock, FaultyClock)
        assert not clock.faulted

    def test_step_shifts_now(self):
        cluster = make_cluster()
        clock = cluster.clock_ensemble.clock_for("client-0")
        base = clock.now()
        clock.step(5e-3)
        assert clock.faulted
        assert clock.now() == pytest.approx(base + 5e-3, abs=1e-9)

    def test_spike_expires(self):
        cluster = make_cluster()
        clock = cluster.clock_ensemble.clock_for("client-0")
        clock.spike(2e-3, duration=5e-3)
        assert clock.now() >= cluster.sim.now + 2e-3 - 1e-9
        cluster.sim.run(until=cluster.sim.now + 20e-3)
        assert not clock.faulted
        assert clock.now() == pytest.approx(cluster.sim.now, abs=1e-9)

    def test_drift_accumulates_and_clear_restores(self):
        cluster = make_cluster()
        clock = cluster.clock_ensemble.clock_for("client-0")
        clock.set_drift(0.5)
        cluster.sim.run(until=cluster.sim.now + 10e-3)
        skew = clock.now() - cluster.sim.now
        assert skew == pytest.approx(5e-3, rel=0.01)
        clock.clear()
        assert not clock.faulted
        # The monotonic guard absorbs the backward jump; once simulated
        # time passes the old high-water mark the clock reads true again.
        cluster.sim.run(until=cluster.sim.now + 20e-3)
        assert clock.now() == pytest.approx(cluster.sim.now, abs=1e-9)


class TestRetryBackoff:
    def test_retries_back_off_between_attempts(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        cluster.pause_server("srv-0-1")

        def probe():
            start = cluster.sim.now
            try:
                yield client.node.call(
                    "srv-0-1", "milana.txn_status",
                    MilanaTxnStatus(txn_id="t"), timeout=5e-3, retries=3)
            except RpcTimeout:
                pass
            return cluster.sim.now - start

        elapsed = cluster.sim.run_until_event(
            cluster.sim.process(probe()))
        # 4 attempts x 5 ms plus three jittered backoff sleeps.
        assert elapsed > 4 * 5e-3
        assert elapsed < 4 * 5e-3 + 3 * 8e-3

    def test_backoff_is_deterministic(self):
        def measure():
            cluster = make_cluster()
            client = cluster.clients[0]
            cluster.pause_server("srv-0-1")

            def probe():
                start = cluster.sim.now
                try:
                    yield client.node.call(
                        "srv-0-1", "milana.txn_status",
                        MilanaTxnStatus(txn_id="t"), timeout=5e-3,
                        retries=4)
                except RpcTimeout:
                    pass
                return cluster.sim.now - start

            return cluster.sim.run_until_event(
                cluster.sim.process(probe()))

        assert measure() == measure()


class TestNemesisPlan:
    def test_events_fire_in_time_order(self):
        cluster = make_cluster()
        plan = NemesisPlan(cluster)
        plan.heal_partition(30e-3, ["srv-0-0"], ["srv-0-1"])
        plan.partition(10e-3, ["srv-0-0"], ["srv-0-1"])
        plan.start()
        cluster.sim.run(until=20e-3)
        assert cluster.network.faults.is_blocked("srv-0-0", "srv-0-1")
        cluster.sim.run(until=50e-3)
        assert not cluster.network.faults.active
        assert [label.split()[0] for _, label in plan.timeline] == \
            ["partition", "heal"]

    def test_clock_storm_is_seeded(self):
        def build():
            cluster = make_cluster(num_clients=3)
            plan = clock_storm(cluster, SeededRng(5), 0.0, 0.1)
            plan.start()
            cluster.sim.run(until=0.15)
            return plan.timeline

        assert build() == build()

    def test_end_time(self):
        cluster = make_cluster()
        plan = partition_primary_from_backups(
            cluster, SeededRng(1), 10e-3, 25e-3)
        assert plan.end_time == pytest.approx(35e-3)


class TestProtocolHardening:
    def test_lost_prepare_reply_yields_unknown_and_reliable_abort(self):
        """Responses from the primary are lost: the client cannot tell
        whether the prepare landed. The vote must be UNKNOWN (not a
        blind ABORT) and the abort decision must be delivered reliably
        once the link heals, clearing the prepared record."""
        cluster = make_cluster()
        client = cluster.clients[0]
        faults = cluster.network.install_faults()

        def commit_one():
            txn = client.begin()
            yield client.txn_get(txn, "key:0")
            client.put(txn, "key:0", "in-doubt")
            # The reply path dies between the read and the 2PC.
            faults.block("srv-0-0", client.node.name)
            return (yield client.commit(txn))

        outcome = cluster.sim.run_until_event(
            cluster.sim.process(commit_one()))
        assert outcome == ABORTED
        assert client.stats.unknown_votes >= 1
        assert client.stats.reliable_decides >= 1
        server = cluster.servers["srv-0-0"]
        assert server.txn_table  # the prepare did land

        faults.heal()
        cluster.sim.run(until=cluster.sim.now + 0.3)
        statuses = {r.status for r in server.txn_table.values()}
        assert statuses == {ABORTED}
        assert server.key_states.peek("key:0").prepared is None

    def test_client_answers_termination_queries(self):
        cluster = make_cluster()
        client = cluster.clients[0]

        def commit_then_query():
            txn = client.begin()
            yield client.txn_get(txn, "key:2")
            client.put(txn, "key:2", "v")
            yield client.commit(txn)
            server = cluster.servers["srv-0-1"]
            reply = yield server.node.call(
                client.node.name, "milana.txn_outcome",
                MilanaTxnStatus(txn_id=txn.txn_id), timeout=5e-3)
            return reply.status

        assert cluster.sim.run_until_event(
            cluster.sim.process(commit_then_query())) == COMMITTED


class TestAuditChecks:
    def _history_cluster(self):
        return Cluster(nemesis_config(
            num_shards=1, num_clients=1, populate_keys=10, seed=5))

    def test_clean_cluster_passes(self):
        cluster = self._history_cluster()
        report = run_audit(cluster)
        assert report.passed
        assert report.committed_txns == 0

    def test_detects_lost_committed_write(self):
        cluster = self._history_cluster()
        cluster.clients[0].history.append(TxnEntry(
            txn_id="phantom", reads={},
            writes={"key:0": Version(50.0, 1)}, ts=50.0))
        report = run_audit(cluster)
        assert not report.passed
        assert report.lost_writes == [("phantom", "key:0", (50.0, 1))]

    def test_detects_stuck_prepared(self):
        cluster = self._history_cluster()
        primary = cluster.primary_server("shard0")
        primary.txn_table["wedged"] = TransactionRecord(
            txn_id="wedged", client_id=9, client_name="ghost",
            ts_commit=1.0, reads=[], writes=[("key:1", "x")],
            participants=["shard0"], status=PREPARED)
        report = run_audit(cluster)
        assert not report.passed
        assert report.stuck_prepared == [(primary.name, "wedged")]

    def test_detects_replica_divergence(self):
        cluster = self._history_cluster()
        version = Version(60.0, 1)
        primary = cluster.primary_server("shard0")
        primary.backend.bulk_load([("key:2", "only-here", version)])
        cluster.clients[0].history.append(TxnEntry(
            txn_id="skewed", reads={}, writes={"key:2": version},
            ts=60.0))
        report = run_audit(cluster)
        assert not report.passed
        assert not report.lost_writes  # the primary does have it
        assert len(report.divergent) == 2  # both backups lag


class TestVacuousAudit:
    """An audit over clients that recorded nothing checks nothing."""

    def test_empty_history_next_to_commits_fails(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        assert not client.record_history

        def commit_one():
            txn = client.begin()
            yield client.txn_get(txn, "key:3")
            client.put(txn, "key:3", "unrecorded")
            return (yield client.commit(txn))

        assert cluster.sim.run_until_event(
            cluster.sim.process(commit_one())) == COMMITTED
        cluster.sim.run(until=cluster.sim.now + 10e-3)
        report = run_audit(cluster)
        assert report.committed_txns == 0
        assert report.clients_committed == 1
        assert not report.passed
        assert "recorded no history" in report.summary()

    def test_run_nemesis_rejects_non_recording_factory(self):
        def factory(sim, network, directory, clock, client_id, lv):
            return MilanaClient(sim, network, directory, clock,
                                client_id=client_id, local_validation=lv)

        with pytest.raises(ValueError, match="record_history"):
            run_nemesis("partition", duration=0.05,
                        config=nemesis_config(client_factory=factory))


class TestNemesisScenarios:
    def test_asymmetric_partition_acceptance(self):
        """The PR's acceptance scenario: clients reach the primary but
        the primary cannot reach its backups; the workload runs to
        completion, the partition heals, and every audit check holds."""
        result = run_nemesis("asymmetric-partition", duration=0.25)
        assert result.passed, result.audit.summary()
        assert result.audit.committed_txns > 0
        assert result.audit.checked_writes > 0
        assert result.fault_stats.messages_blocked > 0
        assert any("asymmetric partition" in label
                   for _, label in result.timeline)
        assert any("heal" in label for _, label in result.timeline)

    def test_loss_storm_under_ycsb(self):
        result = run_nemesis("loss-storm", workload="ycsb",
                             duration=0.15, fault_duration=0.08)
        assert result.passed, result.audit.summary()
        assert result.fault_stats.messages_lost > 0

    def test_runs_are_deterministic(self):
        first = run_nemesis("clock-storm", duration=0.15)
        second = run_nemesis("clock-storm", duration=0.15)
        assert first.summary() == second.summary()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_nemesis("nope")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_nemesis("partition", workload="tpcc")
