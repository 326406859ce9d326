"""The Retwis benchmark (Table 2 of the paper).

Retwis is a Twitter-clone workload; the paper drives MILANA with four
transaction types:

=============  ===========  ========  ==========
Type           Num GETs     Num PUTs  Workload %
=============  ===========  ========  ==========
Add User       1            2         5
Follow User    2            2         10
Post Tweet     3            5         35
Get Timeline   rand(1,10)   0         50
=============  ===========  ========  ==========

Each client instance executes one transaction at a time and *retries an
aborted transaction with the same keys and without any wait* (§5.2). Keys
are drawn Zipf(α) to simulate key sharing; write keys overlap read keys
(read-modify-write) with extra keys appended when a type writes more than
it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..milana.client import MilanaClient, TransactionAborted
from ..milana.transaction import COMMITTED
from ..sim.core import Simulator
from ..sim.process import Process
from ..sim.rng import SeededRng
from .zipf import ZipfGenerator

__all__ = ["RETWIS_MIX", "RetwisInstance", "RetwisStats", "TXN_TYPES"]

#: (name, num_gets or None for rand(1,10), num_puts, weight%)
RETWIS_MIX: List[Tuple[str, Optional[int], int, float]] = [
    ("add_user", 1, 2, 5.0),
    ("follow_user", 2, 2, 10.0),
    ("post_tweet", 3, 5, 35.0),
    ("get_timeline", None, 0, 50.0),
]

TXN_TYPES = [name for name, _, _, _ in RETWIS_MIX]

#: §5.2 / §5.3 variant: "75% read-only transactions (5%, 10%, 10% and 75%
#: breakdown)" — used for the latency/throughput and Centiman figures.
RETWIS_MIX_75_READONLY: List[Tuple[str, Optional[int], int, float]] = [
    ("add_user", 1, 2, 5.0),
    ("follow_user", 2, 2, 10.0),
    ("post_tweet", 3, 5, 10.0),
    ("get_timeline", None, 0, 75.0),
]


@dataclass
class RetwisStats:
    """Benchmark-level accounting (attempts vs. logical transactions)."""

    attempts: int = 0
    committed: int = 0
    aborted: int = 0
    retries: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)

    @property
    def abort_rate(self) -> float:
        decided = self.committed + self.aborted
        return self.aborted / decided if decided else 0.0


class RetwisInstance:
    """One Retwis benchmark instance bound to a MILANA client.

    ``run(duration)`` executes transactions back-to-back (closed loop,
    one outstanding transaction) until the deadline; aborted transactions
    are retried immediately with the same keys, up to ``max_retries``
    before the instance gives up on that logical transaction.
    """

    def __init__(
        self,
        sim: Simulator,
        client: MilanaClient,
        keys: Sequence[str],
        rng: SeededRng,
        alpha: float = 0.6,
        max_retries: int = 10,
        mix: Optional[List[Tuple[str, Optional[int], int, float]]] = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.keys = list(keys)
        self.rng = rng
        self.zipf = ZipfGenerator(rng.substream("zipf"), self.keys, alpha)
        self.max_retries = max_retries
        self.mix = mix if mix is not None else RETWIS_MIX
        self.stats = RetwisStats()
        self._weights = [weight for _, _, _, weight in self.mix]
        self._total_weight = sum(self._weights)

    # -- transaction synthesis ------------------------------------------------

    def _pick_type(self) -> Tuple[str, int, int]:
        draw = self.rng.random() * self._total_weight
        acc = 0.0
        for name, gets, puts, weight in self.mix:
            acc += weight
            if draw <= acc:
                if gets is None:
                    gets = self.rng.randint(1, 10)
                return name, gets, puts
        name, gets, puts, _ = self.mix[-1]
        return name, gets if gets is not None else self.rng.randint(1, 10), \
            puts

    def _pick_keys(self, num_gets: int, num_puts: int) -> Tuple[list, list]:
        distinct = max(num_gets, num_puts)
        distinct = min(distinct, len(self.keys))
        chosen = self.zipf.draw_distinct(distinct)
        return chosen[:num_gets], chosen[:num_puts]

    # -- execution ------------------------------------------------------------------

    def run(self, duration: float) -> Process:
        """Run the closed loop until ``duration`` seconds from now."""
        return self.sim.process(self._loop(self.sim.now + duration))

    def run_transactions(self, count: int) -> Process:
        """Run exactly ``count`` logical transactions."""
        return self.sim.process(self._loop(None, count))

    def _loop(self, deadline: Optional[float],
              count: Optional[int] = None):
        done = 0
        while True:
            if deadline is not None and self.sim.now >= deadline:
                break
            if count is not None and done >= count:
                break
            name, num_gets, num_puts = self._pick_type()
            read_keys, write_keys = self._pick_keys(num_gets, num_puts)
            yield from self._run_with_retries(name, read_keys, write_keys)
            done += 1
            self.stats.by_type[name] = self.stats.by_type.get(name, 0) + 1

    def _run_with_retries(self, name: str, read_keys: list,
                          write_keys: list):
        for attempt in range(1 + self.max_retries):
            outcome = yield from self._attempt(name, read_keys, write_keys)
            self.stats.attempts += 1
            if outcome == COMMITTED:
                self.stats.committed += 1
                return
            self.stats.aborted += 1
            if attempt < self.max_retries:
                self.stats.retries += 1
        # Gave up after max_retries; move on to the next transaction.

    def _attempt(self, name: str, read_keys: list, write_keys: list):
        client = self.client
        txn = client.begin()
        try:
            for key in read_keys:
                yield client.txn_get(txn, key)
        except TransactionAborted:
            client.abort(txn, "snapshot-miss")
            return "ABORTED"
        except Exception:
            client.abort(txn, "read-error")
            return "ABORTED"
        for key in write_keys:
            value = f"{name}:{client.client_id}@{txn.ts_begin:.6f}"
            client.put(txn, key, value)
        outcome = yield client.commit(txn)
        return outcome
