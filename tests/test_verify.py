"""Tests for the offline correctness checkers, including an end-to-end
linearizability check of SEMEL's single-key RPCs."""

import os
import subprocess
import sys

import pytest

from repro.harness.cluster import Cluster, ClusterConfig
from repro.net import AppError
from repro.semel import SemelClient
from repro.verify import (
    Op,
    TxnEntry,
    check_linearizability,
    check_serializability,
)

#: t0 reads k1..k5 at their initial state and writes x; each ti writes
#: ki and reads x's initial state: rw edges t0 -> ti and ti -> t0.
_FAN_OUT_CYCLES = """
import json
from repro.verify import TxnEntry, check_serializability
history = [TxnEntry("t0", reads={f"k{i}": None for i in range(1, 6)},
                    writes={"x": (1.0, 0)}, ts=1.0)]
history += [TxnEntry(f"t{i}", reads={"x": None},
                     writes={f"k{i}": (2.0, i)}, ts=2.0)
            for i in range(1, 6)]
print(json.dumps(check_serializability(history)[1]))
"""


class TestSerializabilityChecker:
    def test_empty_history(self):
        assert check_serializability([]) == (True, None)

    def test_simple_chain_ok(self):
        history = [
            TxnEntry("t1", reads={}, writes={"x": (1.0, 1)}, ts=1.0),
            TxnEntry("t2", reads={"x": (1.0, 1)},
                     writes={"x": (2.0, 2)}, ts=2.0),
        ]
        assert check_serializability(history)[0]

    def test_lost_update_cycle_detected(self):
        """Both transactions read the initial version and both write:
        classic lost update — t1 -> t2 (ww) and t2 -> t1 (rw)."""
        history = [
            TxnEntry("t1", reads={"x": None},
                     writes={"x": (1.0, 1)}, ts=1.0),
            TxnEntry("t2", reads={"x": None},
                     writes={"x": (2.0, 2)}, ts=2.0),
        ]
        ok, witness = check_serializability(history)
        assert not ok
        assert witness[0] == "cycle"

    def test_write_skew_cycle_detected(self):
        """t1 reads y and writes x; t2 reads x and writes y; both read
        pre-images: the classic write-skew cycle."""
        history = [
            TxnEntry("t1", reads={"y": None},
                     writes={"x": (1.0, 1)}, ts=1.0),
            TxnEntry("t2", reads={"x": None},
                     writes={"y": (2.0, 2)}, ts=2.0),
        ]
        ok, _ = check_serializability(history)
        assert not ok

    def test_witness_does_not_depend_on_the_hash_seed(self):
        """t0 has five successors, each closing its own cycle back to
        t0; the witness names the first one t0's edges were built
        with, under every ``PYTHONHASHSEED``."""
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            completed = subprocess.run(
                [sys.executable, "-c", _FAN_OUT_CYCLES], env=env,
                capture_output=True, text=True, check=True)
            outputs.add(completed.stdout)
        assert outputs == {'["cycle", "t1", "t0"]\n'}

    def test_snapshot_read_of_older_version_ok(self):
        """A reader serialized before a later writer is fine even though
        it committed afterwards (MVCC's whole point)."""
        history = [
            TxnEntry("w1", writes={"x": (1.0, 1)}, ts=1.0),
            TxnEntry("w2", writes={"x": (3.0, 2)}, ts=3.0),
            TxnEntry("r", reads={"x": (1.0, 1)}, writes={}, ts=4.0),
        ]
        assert check_serializability(history)[0]


class TestLinearizabilityChecker:
    def test_empty(self):
        assert check_linearizability([])

    def test_sequential_history(self):
        ops = [
            Op("write", "a", 0.0, 1.0),
            Op("read", "a", 2.0, 3.0),
            Op("write", "b", 4.0, 5.0),
            Op("read", "b", 6.0, 7.0),
        ]
        assert check_linearizability(ops)

    def test_stale_read_rejected(self):
        ops = [
            Op("write", "a", 0.0, 1.0),
            Op("write", "b", 2.0, 3.0),
            Op("read", "a", 4.0, 5.0),   # b already complete: stale
        ]
        assert not check_linearizability(ops)

    def test_concurrent_read_may_see_either(self):
        overlap_old = [
            Op("write", "a", 0.0, 1.0),
            Op("write", "b", 2.0, 4.0),
            Op("read", "a", 2.5, 3.0),   # concurrent with write b
        ]
        overlap_new = [
            Op("write", "a", 0.0, 1.0),
            Op("write", "b", 2.0, 4.0),
            Op("read", "b", 2.5, 3.0),
        ]
        assert check_linearizability(overlap_old)
        assert check_linearizability(overlap_new)

    def test_initial_value_read(self):
        ops = [
            Op("read", None, 0.0, 0.5),
            Op("write", "a", 1.0, 2.0),
        ]
        assert check_linearizability(ops, initial=None)

    def test_read_from_nowhere_rejected(self):
        ops = [Op("read", "ghost", 0.0, 1.0)]
        assert not check_linearizability(ops)

    def test_length_guard(self):
        ops = [Op("write", i, i, i + 0.5) for i in range(25)]
        with pytest.raises(ValueError, match="too long"):
            check_linearizability(ops)

    def test_op_validation(self):
        with pytest.raises(ValueError):
            Op("swap", 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            Op("read", 1, 2.0, 1.0)


class TestSemelLinearizability:
    """End-to-end: record a concurrent SEMEL history and check it."""

    def _history(self, clock_preset, seed):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=3, num_clients=0,
            backend="dram", clock_preset=clock_preset, seed=seed,
            populate_keys=0))
        sim = cluster.sim
        clients = [
            SemelClient(sim, cluster.network, cluster.directory,
                        cluster.clock_ensemble.clock_for(f"c{i}"),
                        client_id=i + 1)
            for i in range(3)
        ]
        ops = []

        def writer(client, count, spacing):
            for i in range(count):
                start = sim.now
                try:
                    yield client.put("reg", f"{client.client_id}-{i}")
                except AppError:
                    # Stale write rejected: it never took effect, so it
                    # does not enter the history (at-most-once, §3.3).
                    yield sim.timeout(spacing)
                    continue
                ops.append(Op("write", f"{client.client_id}-{i}",
                              start, sim.now))
                yield sim.timeout(spacing)

        def reader(client, count, spacing):
            for _ in range(count):
                start = sim.now
                result = yield client.get("reg")
                value = result[1] if result is not None else None
                ops.append(Op("read", value, start, sim.now))
                yield sim.timeout(spacing)

        procs = [
            sim.process(writer(clients[0], 4, 0.9e-3)),
            sim.process(writer(clients[1], 4, 1.1e-3)),
            sim.process(reader(clients[2], 8, 0.5e-3)),
        ]
        for proc in procs:
            sim.run_until_event(proc)
        return ops

    def test_current_time_ops_linearizable_with_synced_clocks(self):
        ops = self._history("ptp-sw", seed=179)
        assert len(ops) >= 12
        assert check_linearizability(ops, initial=None)

    def test_perfect_clock_history_linearizable(self):
        ops = self._history("perfect", seed=181)
        assert check_linearizability(ops, initial=None)
