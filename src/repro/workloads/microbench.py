"""KV micro-benchmark for Table 1: raw backend throughput and latency.

Mirrors §5.1's single-SSD experiment: the device is pre-populated, then a
closed-loop population of workers (the paper's hardware queue depth of 128
bounds outstanding requests) issues GET/PUT requests directly against the
backend with a configurable GET percentage. A background process advances
the GC watermark so version garbage collection runs during the
measurement, as in the paper's 15-minute runs.

Measurement excludes a warmup interval and reports:

* throughput (requests/second of simulated time);
* mean GET and PUT latency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..ftl.base import KVBackend
from ..sim.core import Simulator
from ..sim.rng import SeededRng
from ..versioning import Version
from .zipf import ZipfGenerator

__all__ = ["MicrobenchResult", "run_kv_microbench"]


@dataclass
class MicrobenchResult:
    """Table 1 row material."""

    get_percent: float
    requests: int
    gets: int
    puts: int
    duration: float
    get_latency_total: float
    put_latency_total: float

    @property
    def throughput(self) -> float:
        """Requests per second of simulated time."""
        return self.requests / self.duration if self.duration else 0.0

    @property
    def mean_get_latency(self) -> float:
        return self.get_latency_total / self.gets if self.gets else 0.0

    @property
    def mean_put_latency(self) -> float:
        return self.put_latency_total / self.puts if self.puts else 0.0


def run_kv_microbench(
    sim: Simulator,
    backend: KVBackend,
    rng: SeededRng,
    num_keys: int,
    get_percent: float,
    duration: float,
    warmup: float = 0.05,
    num_workers: int = 128,
    version_window: float = 0.2,
) -> MicrobenchResult:
    """Run the micro-benchmark to completion and return the result.

    ``num_workers`` is the closed-loop population (the paper's queue
    depth). ``version_window`` mimics the paper's "keep versions less
    than N seconds old" GC window via watermark advancement.
    """
    if not 0.0 <= get_percent <= 100.0:
        raise ValueError(f"get_percent must be in [0, 100]: {get_percent}")
    keys = [f"mb:{i}" for i in range(num_keys)]
    backend.bulk_load(
        (key, f"init-{key}", Version(-1e6, 0)) for key in keys)

    zipf = ZipfGenerator(rng.substream("keys"), keys, alpha=0.0)
    op_rng = rng.substream("ops")
    put_counter = itertools.count(1)
    measuring_from = sim.now + warmup
    deadline = sim.now + warmup + duration
    result = MicrobenchResult(
        get_percent=get_percent, requests=0, gets=0, puts=0,
        duration=duration, get_latency_total=0.0, put_latency_total=0.0)

    def watermark_daemon():
        while sim.now < deadline:
            backend.set_watermark(sim.now - version_window)
            yield sim.timeout(version_window / 4)

    def worker(worker_id: int):
        while sim.now < deadline:
            key = zipf.draw()
            is_get = op_rng.random() * 100.0 < get_percent
            start = sim.now
            if is_get:
                yield backend.get(key)
            else:
                version = Version(sim.now, worker_id)
                _ = next(put_counter)
                yield backend.put(key, f"v@{start:.6f}", version)
            latency = sim.now - start
            if start >= measuring_from:
                result.requests += 1
                if is_get:
                    result.gets += 1
                    result.get_latency_total += latency
                else:
                    result.puts += 1
                    result.put_latency_total += latency

    sim.process(watermark_daemon())
    workers = [sim.process(worker(i + 1)) for i in range(num_workers)]
    for proc in workers:
        sim.run_until_event(proc)
    return result
