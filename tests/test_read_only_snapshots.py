"""Known protocol bug: a read-only transaction can observe a fractured
snapshot on the configuration the paper evaluates.

The run below is the ``retwis_rw`` benchmark workload (3x3 MFTL servers,
``ptp-sw`` clocks, 12 clients, the Retwis mix at alpha 0.7, 3,000 keys,
WAL on) at a tenth of its simulated window, built through the public
API. Under seed 7 the committed history has an MVSG cycle between
``t2.27`` and ``t6.28``:

* ``t6.28`` (client 6) writes ``key:1`` and ``key:10`` at one version,
  timestamp 0.0185891;
* read-only ``t2.27`` (snapshot timestamp 0.0185905) reads ``key:10`` at
  ``t6.28``'s version but ``key:1`` at an older version (timestamp
  0.0152365).

A snapshot that contains one of a transaction's writes and misses
another is fractured, so the checker is right and the read-only path is
wrong. The same run holds a second fractured read of the same shape
(read-only ``t3.24`` sees ``t3.23``'s ``key:1901`` but not its
``key:11``); which of the two cycles the checker reports depends on the
interpreter's string-hash seed. Snapshot consistency of locally validated read-only transactions
(after "On the Semantics of Snapshot Isolation") is the property the fix
must restore; the fix changes simulated results, so until it lands this
test is a strict xfail and turns red the moment the cycle disappears.
"""

import pytest

from repro.durability import DurabilityConfig
from repro.flash.geometry import FlashGeometry
from repro.harness.audit import run_audit
from repro.harness.cluster import Cluster, ClusterConfig
from repro.workloads import RETWIS_MIX, RetwisInstance

SEED = 7
KEYS = 3000
WARMUP_S = 4.4e-3
WINDOW_S = 17.6e-3
#: Simulated time for one-way decide messages still in flight after the
#: closed loops finish, so the audit finds nothing PREPARED.
SETTLE_S = 5e-3

DIAGNOSIS = (
    "fractured read-only snapshot: t2.27 (snapshot ts 0.0185905) reads "
    "key:10 at t6.28's version (ts 0.0185891) but key:1 at ts 0.0152365, "
    "although t6.28 wrote both keys at one version")


def run_retwis_rw(seed):
    cluster = Cluster(ClusterConfig(
        num_shards=3, replicas_per_shard=3, num_clients=12,
        backend="mftl", clock_preset="ptp-sw", seed=seed,
        local_validation=True,
        geometry=FlashGeometry(page_size=4096, pages_per_block=32,
                               num_blocks=32, num_channels=16),
        durability=DurabilityConfig()))
    sim = cluster.sim
    for client in cluster.clients:
        client.record_history = True
    keys = cluster.populate(KEYS)
    instances = [
        RetwisInstance(sim, client, keys,
                       cluster.rng.substream(f"retwis-{client.client_id}"),
                       alpha=0.7, max_retries=1000, mix=RETWIS_MIX)
        for client in cluster.clients]
    for client in cluster.clients:
        client.start_watermark_daemon(0.05)
    loops = [instance.run(WARMUP_S + WINDOW_S) for instance in instances]
    sim.run(until=sim.now + WARMUP_S)
    sim.run(until=sim.now + WINDOW_S)
    for proc in loops:
        sim.run_until_event(proc)
    sim.run(until=sim.now + SETTLE_S)
    return cluster


@pytest.mark.xfail(strict=True, reason=DIAGNOSIS)
def test_retwis_rw_seed7_history_is_serializable():
    report = run_audit(run_retwis_rw(SEED))
    assert report.committed_txns > 0
    assert report.serializable, report.witness
