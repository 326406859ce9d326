"""Cross-cutting invariant tests: versioning order, end-to-end
serializability under adverse conditions (clock skew, duplicate delivery,
flash GC churn)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import COMMITTED
from repro.versioning import MIN_VERSION, Version


class TestVersionOrdering:
    @settings(max_examples=100, deadline=None)
    @given(
        ts_a=st.floats(min_value=-1e6, max_value=1e6),
        ts_b=st.floats(min_value=-1e6, max_value=1e6),
        client_a=st.integers(min_value=0, max_value=1000),
        client_b=st.integers(min_value=0, max_value=1000),
    )
    def test_total_order(self, ts_a, ts_b, client_a, client_b):
        a = Version(ts_a, client_a)
        b = Version(ts_b, client_b)
        assert (a < b) + (a == b) + (a > b) == 1
        if ts_a < ts_b:
            assert a < b
        if ts_a == ts_b and client_a < client_b:
            assert a < b

    def test_min_version_below_everything(self):
        assert MIN_VERSION < Version(-1e300, 0)
        assert MIN_VERSION < Version(0.0, -1000)

    def test_client_id_breaks_ties(self):
        assert Version(1.0, 1) < Version(1.0, 2)


def _history_is_serializable(history):
    """Adapter: (txn_id, reads, writes, ts) tuples -> repro.verify."""
    from repro.verify import TxnEntry, check_serializability
    entries = [
        TxnEntry(txn_id=txn_id, reads=dict(reads), writes=dict(writes),
                 ts=ts)
        for txn_id, reads, writes, ts in history
    ]
    ok, _witness = check_serializability(entries)
    return ok


def run_random_workload(cluster, txns_per_client=25, keys_per_txn=3,
                        write_probability=0.6):
    """Drive random read/write transactions; return the committed
    history for offline checking."""
    history = []
    sim = cluster.sim

    def client_loop(client):
        rng = cluster.rng.substream(f"inv{client.client_id}")
        for i in range(txns_per_client):
            txn = client.begin()
            keys = rng.sample(cluster.populated_keys, keys_per_txn)
            observed = {}
            aborted_early = False
            for key in keys:
                try:
                    yield client.txn_get(txn, key)
                except Exception:
                    client.abort(txn, "read-failed")
                    aborted_early = True
                    break
                obs = txn.reads[key]
                observed[key] = (tuple(obs.version)
                                 if obs.version else None)
            if aborted_early:
                continue
            writes = {}
            if rng.random() < write_probability:
                write_key = keys[0]
                client.put(txn, write_key, f"{client.client_id}:{i}")
            outcome = yield client.commit(txn)
            if outcome == COMMITTED:
                if txn.writes:
                    version = (txn.ts_commit, client.client_id)
                    writes = {key: version for key in txn.writes}
                    ts = txn.ts_commit
                else:
                    ts = txn.ts_begin
                history.append((txn.txn_id, observed, writes, ts))
            yield sim.timeout(0.2e-3)

    procs = [sim.process(client_loop(c)) for c in cluster.clients]
    for proc in procs:
        sim.run_until_event(proc)
    return history


class TestEndToEndSerializability:
    @pytest.mark.parametrize("backend", ["dram", "mftl", "vftl"])
    def test_serializable_under_gc_churn(self, backend):
        cluster = Cluster(ClusterConfig(
            num_shards=2, replicas_per_shard=1, num_clients=4,
            backend=backend, clock_preset="ptp-sw", seed=61,
            populate_keys=12))
        for client in cluster.clients:
            client.start_watermark_daemon(0.02)
        history = run_random_workload(cluster)
        assert len(history) > 30
        assert _history_is_serializable(history)

    def test_serializable_under_ntp_skew(self):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=3, num_clients=6,
            backend="dram", clock_preset="ntp", seed=67,
            populate_keys=10))
        history = run_random_workload(cluster, txns_per_client=30)
        assert len(history) > 40
        assert _history_is_serializable(history)

    def test_serializable_with_duplicate_delivery(self):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=3, num_clients=4,
            backend="dram", clock_preset="ptp-sw", seed=71,
            populate_keys=10))
        cluster.network.install_faults().set_duplicate(0.3)
        history = run_random_workload(cluster)
        assert len(history) > 25
        assert _history_is_serializable(history)

    def test_committed_writes_never_lost(self):
        """Every committed write is either the current value or
        superseded by a later committed write."""
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=3, num_clients=3,
            backend="mftl", clock_preset="ptp-sw", seed=73,
            populate_keys=8))
        history = run_random_workload(cluster, txns_per_client=20)
        committed_writes = {}
        for _txn_id, _reads, writes, _ts in history:
            for key, version in writes.items():
                existing = committed_writes.get(key)
                if existing is None or version > existing:
                    committed_writes[key] = version
        client = cluster.clients[0]
        sim = cluster.sim
        for key, version in committed_writes.items():
            def check(key=key):
                txn = client.begin()
                yield client.txn_get(txn, key)
                obs = txn.reads[key]
                yield client.commit(txn)
                return tuple(obs.version)

            final = sim.run_until_event(sim.process(check()))
            assert final >= version, (
                f"{key}: final version {final} older than committed "
                f"{version}")
