"""Microbenchmarks of the simulation-kernel hot paths.

Each benchmark stresses one layer of the stack the experiments hammer
millions of times per run:

* event dispatch — the pure pop/callback/succeed cycle of the run loop
  over a prebuilt event chain, the floor every other number sits on;
* event alloc — the same cycle with ``Event`` allocation and callback
  wiring inside the loop, i.e. the cost of every allocated trigger (a
  message delivery, a deadline, a pending-call record);
* timeout chain — processes doing ``yield sim.timeout(...)`` in a loop,
  i.e. the generator trampoline plus the pure-delay fast path;
* store handoff — producer/consumer pairs through a
  :class:`~repro.sim.resources.Store`, the queue a raw network inbox
  is;
* RPC round-trips — full request/response cycles over the simulated
  network, the unit of work every protocol message pays: one heap hop
  per message, four events per round trip with this echo's one
  suspension adding a fifth, and a deadline that the answer cancels
  (see ``repro.net.rpc``), so the heap stays as small as what is live;
* device reads — readers that charge the FTL core and then read a
  page, the MFTL GET path without the store: a charge is one
  ``Resource.hold`` heap entry, a page read a service end plus a
  completion, and neither is a process (see ``repro.flash.device``);
* histogram records — latencies recorded into the 1,024-sub-bucket
  :class:`~repro.histogram.LatencyHistogram` the end-to-end benchmark
  uses, whose counters are allocated one power-of-two range at a time.

All results are rates per **host** second; simulated time is reported
in ``extra`` where it is interesting. Scales are chosen so the full
suite runs in a few seconds on a developer machine; ``scale`` shrinks
them further for CI smoke runs.
"""

from __future__ import annotations

import math
import sys

from ..flash.device import FlashDevice
from ..flash.geometry import FlashGeometry
from ..ftl.base import Cpu
from ..histogram import LatencyHistogram
from ..net.latency import FixedLatency
from ..net.network import Network
from ..net.rpc import RpcNode
from ..sim.core import Simulator
from ..sim.events import Event
from ..sim.resources import Store
from ..sim.rng import SeededRng
from .runner import BenchResult, host_clock

__all__ = [
    "bench_device_reads",
    "bench_event_alloc",
    "bench_event_dispatch",
    "bench_histogram_records",
    "bench_rpc_roundtrips",
    "bench_store_handoff",
    "bench_timeout_chain",
]


def _scaled(n: int, scale: float) -> int:
    return max(1, int(n * scale))


def bench_event_dispatch(scale: float = 1.0) -> BenchResult:
    """Pure event-dispatch throughput of the run loop.

    A chain of events is prebuilt outside the timed region — each
    event's sole callback is the next event's bound ``succeed`` — so
    the measured cycle is exactly what the kernel does per event: heap
    pop, fire, callback dispatch, trigger, heap push. No benchmark
    Python runs inside the loop.
    """
    n = _scaled(200_000, scale)
    sim = Simulator()
    events = [Event(sim) for _ in range(n)]
    for index in range(n - 1):
        events[index].callbacks.append(events[index + 1].succeed)
    events[0].succeed()
    start = host_clock()
    sim.run()
    seconds = host_clock() - start
    return BenchResult(
        name="kernel/events", metric="events_per_s",
        value=n / seconds if seconds else 0.0,
        n=n, seconds=seconds)


def bench_event_alloc(scale: float = 1.0) -> BenchResult:
    """Allocate/wire/trigger cycle: one fresh event per kernel step.

    A self-perpetuating relay callback allocates the successor event
    inside the measured loop, so this adds ``Event`` construction and
    callback wiring — the per-event cost of every allocated trigger —
    on top of the dispatch floor measured by ``kernel/events``.
    """
    n = _scaled(200_000, scale)
    sim = Simulator()
    remaining = n

    def relay(event: Event) -> None:
        nonlocal remaining
        if remaining:
            remaining -= 1
            successor = Event(sim)
            successor.callbacks.append(relay)
            successor.succeed()

    first = Event(sim)
    first.callbacks.append(relay)
    first.succeed()
    start = host_clock()
    sim.run()
    seconds = host_clock() - start
    events = n + 1
    return BenchResult(
        name="kernel/alloc", metric="allocs_per_s",
        value=events / seconds if seconds else 0.0,
        n=events, seconds=seconds)


def bench_timeout_chain(scale: float = 1.0) -> BenchResult:
    """Closed population of processes sleeping in a tight loop."""
    num_procs = 50
    per_proc = _scaled(4_000, scale)
    sim = Simulator()

    def sleeper(period: float):
        for _ in range(per_proc):
            yield sim.timeout(period)

    for index in range(num_procs):
        # Distinct periods keep the heap honestly interleaved rather
        # than degenerating into same-time batches.
        sim.process(sleeper(1e-6 * (1 + index / num_procs)))
    start = host_clock()
    sim.run()
    seconds = host_clock() - start
    timeouts = num_procs * per_proc
    return BenchResult(
        name="kernel/timeouts", metric="timeouts_per_s",
        value=timeouts / seconds if seconds else 0.0,
        n=timeouts, seconds=seconds,
        extra={"processes": num_procs, "sim_seconds": round(sim.now, 9)})


def bench_store_handoff(scale: float = 1.0) -> BenchResult:
    """Producer/consumer pairs ping-ponging items through Stores."""
    pairs = 8
    per_pair = _scaled(15_000, scale)
    sim = Simulator()

    def producer(store: Store):
        for index in range(per_pair):
            yield store.put(index)
            yield sim.timeout(1e-6)

    def consumer(store: Store):
        for _ in range(per_pair):
            yield store.get()

    for _ in range(pairs):
        store = Store(sim)
        sim.process(producer(store))
        sim.process(consumer(store))
    start = host_clock()
    sim.run()
    seconds = host_clock() - start
    handoffs = pairs * per_pair
    return BenchResult(
        name="kernel/store", metric="handoffs_per_s",
        value=handoffs / seconds if seconds else 0.0,
        n=handoffs, seconds=seconds, extra={"pairs": pairs})


def bench_rpc_roundtrips(scale: float = 1.0) -> BenchResult:
    """Sequential request/response cycles between two RPC nodes."""
    n = _scaled(20_000, scale)
    sim = Simulator()
    network = Network(sim, SeededRng(7), latency=FixedLatency(10e-6))
    client = RpcNode(sim, network, "bench-client")
    server = RpcNode(sim, network, "bench-server")

    def echo(payload):
        yield sim.timeout(1e-6)
        return payload

    server.register("bench-echo", echo)

    def caller():
        for index in range(n):
            yield client.call("bench-server", "bench-echo", index,
                              timeout=10e-3)

    proc = sim.process(caller())
    start = host_clock()
    sim.run_until_event(proc)
    seconds = host_clock() - start
    return BenchResult(
        name="kernel/rpc", metric="roundtrips_per_s",
        value=n / seconds if seconds else 0.0,
        n=n, seconds=seconds,
        extra={"messages_sent": network.stats.messages_sent,
               "heap_len": len(sim._heap)})


def bench_device_reads(scale: float = 1.0) -> BenchResult:
    """Closed population of readers, each charging the FTL core and
    then reading a page, in a loop.

    Thirty-two readers share one core (2.2 us per charge, MFTL's GET
    cost) and sixteen channels, two readers per channel, so charges
    queue behind a busy core and reads behind a busy channel, as on
    the ``kv_get`` device.
    """
    readers = 32
    per_reader = _scaled(2_000, scale)
    geometry = FlashGeometry(page_size=4096, pages_per_block=16,
                             num_blocks=16, num_channels=16)
    sim = Simulator()
    device = FlashDevice(sim, geometry)
    cpu = Cpu(sim)
    for page in range(geometry.pages_per_block):  # one per channel
        device.chip.program(0, page, page)

    def reader(page: int):
        for _ in range(per_reader):
            yield cpu.charge(2.2e-6)
            yield device.read_page(0, page)

    for index in range(readers):
        sim.process(reader(index % geometry.pages_per_block))
    start = host_clock()
    sim.run()
    seconds = host_clock() - start
    reads = readers * per_reader
    return BenchResult(
        name="kernel/device", metric="reads_per_s",
        value=reads / seconds if seconds else 0.0,
        n=reads, seconds=seconds,
        extra={"readers": readers, "sim_seconds": round(sim.now, 9)})


def bench_histogram_records(scale: float = 1.0) -> BenchResult:
    """A seeded log-normal latency stream (median 300 us) recorded into
    a 1,024-sub-bucket histogram.

    The values are drawn outside the timed region. ``extra`` reports
    how many power-of-two ranges hold counters and their bytes: 8 B x
    1,024 per range the stream touched, not per range the histogram
    spans.
    """
    n = _scaled(200_000, scale)
    rng = SeededRng(11)
    values = [rng.lognormvariate(math.log(300e-6), 0.8) for _ in range(n)]
    histogram = LatencyHistogram(sub_buckets=1024)
    record = histogram.record
    start = host_clock()
    for value in values:
        record(value)
    seconds = host_clock() - start
    rows = [row for row in histogram._rows if row is not None]
    return BenchResult(
        name="kernel/histogram", metric="records_per_s",
        value=n / seconds if seconds else 0.0,
        n=n, seconds=seconds,
        extra={"rows": len(rows),
               "counter_bytes": sum(sys.getsizeof(row) for row in rows)})
