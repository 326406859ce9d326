"""YCSB-style workloads over MILANA transactions.

The Yahoo! Cloud Serving Benchmark core workloads, expressed as
single-operation or small transactions — the standard way downstream
users exercise a transactional KV store beyond the paper's Retwis mix:

========  =============================  =======================
Workload  Mix                            Distribution
========  =============================  =======================
A         50 % read / 50 % update        zipfian
B         95 % read / 5 % update         zipfian
C         100 % read                     zipfian
D         95 % read / 5 % insert         latest
E         95 % scan / 5 % insert         zipfian (scan len 1-10)
F         50 % read / 50 % read-modify-  zipfian
          write
========  =============================  =======================

Scans are modelled as multi-key snapshot reads within one transaction
(contiguous key ranks), which is what a scan over an ordered keyspace
costs in MILANA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..milana.client import MilanaClient, TransactionAborted
from ..milana.transaction import COMMITTED
from ..net.rpc import RpcError
from ..sim.core import Simulator
from ..sim.process import Process
from ..sim.rng import SeededRng
from .zipf import ZipfGenerator

__all__ = ["YCSB_WORKLOADS", "YcsbInstance", "YcsbStats"]

#: workload -> list of (operation, weight); operations are read / update /
#: insert / scan / rmw (read-modify-write).
YCSB_WORKLOADS: Dict[str, List[Tuple[str, float]]] = {
    "A": [("read", 50.0), ("update", 50.0)],
    "B": [("read", 95.0), ("update", 5.0)],
    "C": [("read", 100.0)],
    "D": [("read", 95.0), ("insert", 5.0)],
    "E": [("scan", 95.0), ("insert", 5.0)],
    "F": [("read", 50.0), ("rmw", 50.0)],
}


@dataclass
class YcsbStats:
    """Per-instance YCSB accounting."""

    operations: int = 0
    committed: int = 0
    aborted: int = 0
    inserts: int = 0
    by_operation: Dict[str, int] = field(default_factory=dict)


class YcsbInstance:
    """One YCSB client loop bound to a MILANA client."""

    def __init__(
        self,
        sim: Simulator,
        client: MilanaClient,
        keys: Sequence[str],
        rng: SeededRng,
        workload: str = "B",
        alpha: float = 0.99,
        max_scan_length: int = 10,
        max_retries: int = 5,
    ) -> None:
        if workload not in YCSB_WORKLOADS:
            raise ValueError(
                f"unknown YCSB workload {workload!r}; expected one of "
                f"{sorted(YCSB_WORKLOADS)}")
        self.sim = sim
        self.client = client
        self.keys = list(keys)
        self.rng = rng
        self.workload = workload
        self.mix = YCSB_WORKLOADS[workload]
        self.alpha = alpha
        self.max_scan_length = max_scan_length
        self.max_retries = max_retries
        self.zipf = ZipfGenerator(rng.substream("zipf"), self.keys, alpha)
        self.stats = YcsbStats()
        self._insert_counter = 0
        self._total_weight = sum(weight for _, weight in self.mix)

    # -- key selection -------------------------------------------------------

    def _pick_operation(self) -> str:
        draw = self.rng.random() * self._total_weight
        acc = 0.0
        for operation, weight in self.mix:
            acc += weight
            if draw <= acc:
                return operation
        return self.mix[-1][0]

    def _pick_key(self) -> str:
        if self.workload == "D":
            # "Latest" distribution: newest inserts are hottest; fall
            # back to the base population when none inserted yet.
            if self._insert_counter and self.rng.random() < 0.5:
                recent = max(1, self._insert_counter - 10)
                index = self.rng.randint(recent, self._insert_counter)
                return self._inserted_key(index)
        return self.zipf.draw()

    def _inserted_key(self, index: int) -> str:
        return f"{self.client.name}:ins:{index}"

    def _scan_range(self) -> List[str]:
        start = self.rng.randint(0, len(self.keys) - 1)
        length = self.rng.randint(1, self.max_scan_length)
        return [self.keys[i % len(self.keys)]
                for i in range(start, start + length)]

    # -- execution ------------------------------------------------------------------

    def run_operations(self, count: int) -> Process:
        """Run exactly ``count`` YCSB operations (as transactions)."""
        return self.sim.process(self._loop(count=count))

    def run(self, duration: float) -> Process:
        """Run operations until ``duration`` seconds from now."""
        return self.sim.process(
            self._loop(deadline=self.sim.now + duration))

    def _loop(self, count: Optional[int] = None,
              deadline: Optional[float] = None):
        done = 0
        while True:
            if count is not None and done >= count:
                break
            if deadline is not None and self.sim.now >= deadline:
                break
            operation = self._pick_operation()
            yield from self._run_with_retries(operation)
            self.stats.operations += 1
            self.stats.by_operation[operation] = \
                self.stats.by_operation.get(operation, 0) + 1
            done += 1

    def _run_with_retries(self, operation: str):
        for _attempt in range(1 + self.max_retries):
            outcome = yield from self._attempt(operation)
            if outcome == COMMITTED:
                self.stats.committed += 1
                return
            self.stats.aborted += 1

    def _attempt(self, operation: str):
        client = self.client
        txn = client.begin()
        try:
            if operation == "read":
                yield client.txn_get(txn, self._pick_key())
            elif operation == "update":
                key = self._pick_key()
                client.put(txn, key, f"u@{txn.ts_begin:.6f}")
            elif operation == "insert":
                self._insert_counter += 1
                self.stats.inserts += 1
                client.put(txn, self._inserted_key(self._insert_counter),
                           f"i@{txn.ts_begin:.6f}")
            elif operation == "scan":
                for key in self._scan_range():
                    yield client.txn_get(txn, key)
            elif operation == "rmw":
                key = self._pick_key()
                value = yield client.txn_get(txn, key)
                client.put(txn, key, f"rmw({value})@{txn.ts_begin:.6f}")
            else:  # pragma: no cover - guarded by constructor
                raise AssertionError(operation)
        except TransactionAborted:
            client.abort(txn, "snapshot-miss")
            return "ABORTED"
        except RpcError:
            # Unreachable/lossy primary (fault injection): count it as an
            # aborted attempt rather than killing the workload loop.
            client.abort(txn, "read-error")
            return "ABORTED"
        outcome = yield client.commit(txn)
        return outcome
