"""Chaos tests: the system stays correct under rolling failures."""

import pytest

from repro.durability import DurabilityConfig
from repro.harness.chaos import ChaosMonkey, NemesisPlan
from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import COMMITTED
from repro.sim import SeededRng
from repro.workloads import RetwisInstance


def make_cluster(**overrides):
    defaults = dict(num_shards=2, replicas_per_shard=3, num_clients=4,
                    backend="dram", clock_preset="ptp-sw", seed=137,
                    populate_keys=200)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


class TestPausePlan:
    def test_executes_in_time_order(self):
        cluster = make_cluster()
        plan = (NemesisPlan(cluster)
                .unpause(30e-3, "srv-0-1")
                .pause(10e-3, "srv-0-1"))
        plan.start()
        cluster.sim.run(until=0.05)
        assert [(round(t, 4), label) for t, label in plan.timeline] == [
            (0.01, "pause srv-0-1"),
            (0.03, "unpause srv-0-1"),
        ]
        assert not cluster.network.is_crashed("srv-0-1")

    def test_backup_blip_does_not_lose_commits(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        (NemesisPlan(cluster)
            .pause(5e-3, "srv-0-1")
            .unpause(25e-3, "srv-0-1")
            .start())

        def work():
            outcomes = []
            for i in range(20):
                txn = client.begin()
                yield client.txn_get(txn, f"key:{i}")
                client.put(txn, f"key:{i}", f"gen-{i}")
                outcomes.append((yield client.commit(txn)))
                yield cluster.sim.timeout(2e-3)
            return outcomes

        outcomes = cluster.sim.run_until_event(
            cluster.sim.process(work()))
        # One backup down still leaves a quorum: everything commits.
        assert all(outcome == COMMITTED for outcome in outcomes)

        def audit():
            values = []
            for i in range(20):
                txn = client.begin()
                values.append((yield client.txn_get(txn, f"key:{i}")))
                yield client.commit(txn)
            return values

        values = cluster.sim.run_until_event(
            cluster.sim.process(audit()))
        assert values == [f"gen-{i}" for i in range(20)]


class TestChaosMonkey:
    def test_never_breaks_quorum(self):
        cluster = make_cluster()
        monkey = ChaosMonkey(cluster, SeededRng(139),
                             interval=20e-3, downtime=10e-3)
        monkey.start()
        cluster.sim.run(until=0.4)
        assert len(monkey.kills) >= 10
        # Primaries were never touched.
        primaries = set(cluster.directory.all_primaries())
        for _, victim in monkey.kills:
            assert victim not in primaries

    def test_workload_survives_rolling_backup_failures(self):
        cluster = make_cluster(num_clients=4)
        monkey = ChaosMonkey(cluster, SeededRng(149),
                             interval=25e-3, downtime=12e-3)
        monkey.start()
        instances = [
            RetwisInstance(cluster.sim, client, cluster.populated_keys,
                           cluster.rng.substream(f"chaos{i}"), alpha=0.5)
            for i, client in enumerate(cluster.clients)
        ]
        procs = [instance.run_transactions(40) for instance in instances]
        for proc in procs:
            cluster.sim.run_until_event(proc)
        committed = sum(i.stats.committed for i in instances)
        assert committed >= 150, (
            f"only {committed}/160 logical transactions committed under "
            "rolling backup failures")
        assert len(monkey.kills) > 0

    def test_validates_parameters(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            ChaosMonkey(cluster, SeededRng(0), interval=10e-3,
                        downtime=10e-3)

    def test_quorum_safety_consults_partitions(self):
        """A replica on the wrong side of a partition cannot ack
        replication, so it must count against the kill budget even
        though it is not crashed."""
        cluster = make_cluster(num_shards=1)
        faults = cluster.network.install_faults()
        # srv-0-1 is cut off: the only connected majority left is
        # {srv-0-0, srv-0-2}, so srv-0-2 must never be killed.
        faults.partition(["srv-0-1"], ["srv-0-0", "srv-0-2"])
        monkey = ChaosMonkey(cluster, SeededRng(7),
                             interval=20e-3, downtime=10e-3)
        monkey.start()
        cluster.sim.run(until=0.4)
        victims = {victim for _, victim in monkey.kills}
        assert monkey.kills
        assert victims == {"srv-0-1"}

    def test_amnesia_mode_wipes_and_restarts_victims(self):
        """``amnesia=True`` kills for real: victims go through
        crash_server → WAL replay → catch-up, never count toward a
        quorum mid-recovery, and committed data still survives."""
        cluster = make_cluster(num_clients=2, clock_preset="perfect",
                               durability=DurabilityConfig())
        monkey = ChaosMonkey(cluster, SeededRng(163),
                             interval=8e-3, downtime=4e-3,
                             amnesia=True)
        monkey.start()
        instances = [
            RetwisInstance(cluster.sim, client, cluster.populated_keys,
                           cluster.rng.substream(f"amn{i}"), alpha=0.5)
            for i, client in enumerate(cluster.clients)
        ]
        procs = [instance.run_transactions(80) for instance in instances]
        for proc in procs:
            cluster.sim.run_until_event(proc)
        assert monkey.kills
        # Every victim was really wiped: its WAL had to be replayed.
        victims = {victim for _, victim in monkey.kills}
        for victim in victims:
            assert cluster.servers[victim].wal.replays >= 1, victim
        committed = sum(i.stats.committed for i in instances)
        assert committed >= 120, (
            f"only {committed}/160 logical transactions committed under "
            "rolling amnesia crashes")

    def test_include_primaries_with_master_failover(self):
        """With a master running, the monkey may kill primaries too;
        failover promotes a backup and committed data survives."""
        cluster = make_cluster(num_shards=1, num_clients=2,
                               with_master=True, clock_preset="perfect")
        client = cluster.clients[0]

        def seed():
            for i in range(10):
                txn = client.begin()
                yield client.txn_get(txn, f"key:{i}")
                client.put(txn, f"key:{i}", f"pre-{i}")
                outcome = yield client.commit(txn)
                assert outcome == COMMITTED
                yield cluster.sim.timeout(1e-3)

        cluster.sim.run_until_event(cluster.sim.process(seed()))

        monkey = ChaosMonkey(cluster, SeededRng(151),
                             interval=150e-3, downtime=100e-3,
                             include_primaries=True)
        monkey.start()
        cluster.sim.run(until=cluster.sim.now + 0.8)
        primaries_killed = [victim for _, victim in monkey.kills
                            if victim.endswith("-0")]
        assert "srv-0-0" in {v for _, v in monkey.kills} or \
            cluster.master.failovers, \
            f"no primary ever killed: {monkey.kills}"
        assert cluster.master.failovers, primaries_killed

        # After the dust settles, every seeded write is still readable.
        cluster.sim.run(until=cluster.sim.now + 0.3)

        def audit():
            values = []
            for i in range(10):
                txn = client.begin()
                values.append((yield client.txn_get(txn, f"key:{i}")))
                yield client.commit(txn)
            return values

        values = cluster.sim.run_until_event(
            cluster.sim.process(audit()))
        assert values == [f"pre-{i}" for i in range(10)]
