#!/usr/bin/env python
"""Chaos engineering: rolling failures under an active master.

Runs the Retwis workload under ``rolling_chaos``: every 60 ms it pauses
a random server (never breaking a quorum) for 45 ms. With a master
running, primaries are fair game too, and 45 ms of silence outlasts the
master's 35 ms failure timeout: the heartbeat-driven master detects it,
promotes a backup, runs the Algorithm 2 recovery merge, and the workload
rides through — this is §3's "global master" plus §4.5's recovery story,
end to end.

Run:  python examples/chaos_with_master.py
"""

from repro.harness.chaos import rolling_chaos
from repro.harness.cluster import Cluster, ClusterConfig
from repro.sim import SeededRng
from repro.workloads import RetwisInstance


def main():
    cluster = Cluster(ClusterConfig(
        num_shards=2,
        replicas_per_shard=3,
        num_clients=6,
        backend="dram",
        clock_preset="ptp-sw",
        populate_keys=500,
        seed=77,
        with_master=True,          # heartbeats + automatic failover
    ))
    sim = cluster.sim

    plan = rolling_chaos(cluster, SeededRng(78), start=0.0, duration=0.6,
                         interval=60e-3, downtime=45e-3)
    plan.start()

    instances = [
        RetwisInstance(sim, client, cluster.populated_keys,
                       cluster.rng.substream(f"chaos{i}"), alpha=0.6)
        for i, client in enumerate(cluster.clients)
    ]
    procs = [instance.run(duration=0.6) for instance in instances]
    for proc in procs:
        sim.run_until_event(proc)
    sim.run(until=sim.now + 0.2)   # let the failover settle

    committed = sum(i.stats.committed for i in instances)
    aborted = sum(i.stats.aborted for i in instances)
    for at, label in plan.timeline:
        print(f"  t={at * 1e3:5.0f} ms  {label}")
    print(f"primary failovers     : {len(cluster.master.failovers)}")
    for at, shard, dead, successor in cluster.master.failovers:
        print(f"  t={at * 1e3:5.0f} ms  {shard}: {dead} -> {successor} "
              f"(epoch {cluster.master.epochs[shard]})")
    print(f"transactions committed: {committed}  aborted: {aborted}")
    assert cluster.master.failovers, "the master should have failed over"
    assert committed > 500

    # The promoted primary serves reads of pre-failover data.
    client = cluster.clients[0]

    def audit():
        txn = client.begin()
        value = yield client.txn_get(txn, "key:0")
        yield client.commit(txn)
        return value

    value = sim.run_until_event(sim.process(audit()))
    print(f"post-failover read of key:0 -> {value!r}")


if __name__ == "__main__":
    main()
