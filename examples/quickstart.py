#!/usr/bin/env python
"""Quickstart: stand up a MILANA/SEMEL cluster and run transactions.

Builds the paper's basic deployment — 2 shards x 3 replicas on the
multi-version flash FTL, clients synchronized with software-timestamped
PTP — then runs a read-modify-write transaction, a snapshot read-only
transaction validated locally at the client, and shows a write-write
conflict aborting one of two racing transactions.

Run:  python examples/quickstart.py
"""

from repro import ABORTED, COMMITTED, Cluster, ClusterConfig
from repro.harness.metrics import snapshot


def main():
    cluster = Cluster(ClusterConfig(
        num_shards=2,
        replicas_per_shard=3,
        num_clients=2,
        backend="mftl",          # the paper's unified multi-version FTL
        clock_preset="ptp-sw",   # 53.2 us mean pairwise skew (paper §5.2)
        populate_keys=100,
        seed=1,
    ))
    sim = cluster.sim
    alice, bob = cluster.clients

    # -- 1. a read-modify-write transaction --------------------------------
    def transfer():
        txn = alice.begin()
        balance = yield alice.txn_get(txn, "key:1")
        alice.put(txn, "key:1", f"{balance}+100")
        alice.put(txn, "key:2", "receipt")
        outcome = yield alice.commit(txn)
        return outcome

    outcome = sim.run_until_event(sim.process(transfer()))
    print(f"read-modify-write transaction: {outcome}")

    # -- 2. a read-only transaction, validated locally ---------------------
    def read_only():
        txn = bob.begin()
        v1 = yield bob.txn_get(txn, "key:1")
        v2 = yield bob.txn_get(txn, "key:2")
        sent_before = cluster.network.stats.messages_sent
        outcome = yield bob.commit(txn)     # zero network messages
        sent_after = cluster.network.stats.messages_sent
        return outcome, v1, v2, sent_after - sent_before

    sim.run(until=sim.now + 0.01)
    outcome, v1, v2, messages = sim.run_until_event(
        sim.process(read_only()))
    print(f"read-only transaction: {outcome}; key:1={v1!r} key:2={v2!r}")
    print(f"  commit messages on the wire: {messages} "
          "(client-local validation, paper section 4.3)")

    # -- 3. two racing writers: OCC aborts exactly one ---------------------
    def racer(client, tag, results):
        txn = client.begin()
        yield client.txn_get(txn, "key:7")
        client.put(txn, "key:7", tag)
        results[tag] = yield client.commit(txn)

    results = {}
    sim.process(racer(alice, "alice-wins?", results))
    sim.process(racer(bob, "bob-wins?", results))
    sim.run(until=sim.now + 0.05)
    print(f"write-write race outcomes: {results}")
    assert sorted(results.values()) == [ABORTED, COMMITTED]

    totals = snapshot(sim.now, cluster.clients)
    decided = totals.committed + totals.aborted
    print(f"totals: {totals.committed} committed, "
          f"{totals.aborted} aborted, "
          f"mean latency {totals.latency_total / decided * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
