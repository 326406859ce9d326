#!/usr/bin/env python
"""Failure injection: primary failover with Algorithm 2 recovery (§4.5).

Commits transactions through a 3-replica shard, then fail-stops the
primary, promotes a backup, and runs the recovery merge: the new primary
pulls the transaction logs from the surviving replicas, reconstructs the
transaction table and per-key state, waits out the old primary's read
lease, and resumes service — with every committed write intact.

Run:  python examples/failover_recovery.py
"""

from repro import COMMITTED, Cluster, ClusterConfig
from repro.milana import recover_primary


def main():
    cluster = Cluster(ClusterConfig(
        num_shards=1,
        replicas_per_shard=3,
        num_clients=1,
        backend="mftl",
        clock_preset="ptp-sw",
        populate_keys=50,
        seed=33,
    ))
    sim = cluster.sim
    client = cluster.clients[0]

    def commit_generation(tag, count):
        committed = 0
        for i in range(count):
            txn = client.begin()
            yield client.txn_get(txn, f"key:{i}")
            client.put(txn, f"key:{i}", f"{tag}-{i}")
            outcome = yield client.commit(txn)
            if outcome == COMMITTED:
                committed += 1
            yield sim.timeout(1e-3)
        return committed

    committed = sim.run_until_event(
        sim.process(commit_generation("pre-failover", 10)))
    print(f"committed {committed} transactions through primary "
          f"{cluster.directory.shard('shard0').primary}")
    sim.run(until=sim.now + 0.01)  # let replication laggards drain

    # -- fail the primary, promote a backup --------------------------------
    old_primary = cluster.directory.shard("shard0").primary
    cluster.pause_server(old_primary)
    cluster.directory.promote("shard0", "srv-0-1")
    print(f"crashed {old_primary}; promoting srv-0-1")

    new_primary = cluster.servers["srv-0-1"]
    sim.run_until_event(recover_primary(new_primary, lease_wait=30e-3))
    print(f"recovery complete at t={sim.now * 1e3:.1f} ms "
          f"(merged {len(new_primary.txn_table)} transaction records, "
          "lease wait observed)")

    # -- verify every committed write survived ------------------------------
    def audit():
        intact = 0
        for i in range(10):
            txn = client.begin()
            value = yield client.txn_get(txn, f"key:{i}")
            yield client.commit(txn)
            if value == f"pre-failover-{i}":
                intact += 1
        return intact

    intact = sim.run_until_event(sim.process(audit()))
    print(f"audit after failover: {intact}/10 committed writes intact")
    assert intact == 10

    # -- and the shard keeps serving new transactions ------------------------
    committed = sim.run_until_event(
        sim.process(commit_generation("post-failover", 5)))
    print(f"committed {committed} new transactions on the new primary")


if __name__ == "__main__":
    main()
