"""One repeat of one workload, in an interpreter of its own.

``run.py`` starts this file as a child process per repeat, so that every
repeat begins with a fresh heap and ``ru_maxrss`` is the peak of that
repeat alone. It prints one JSON object: host timings, simulated results,
the spans around each phase and, on a traced repeat, the profile of the
window aggregated by layer.

    python repeat.py WORKLOAD SEED SCALE TRACED(0|1)
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import layers

sys.path.insert(0, layers.SRC)

from repro.bench.runner import host_clock  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

__all__ = ["run_repeat"]


class Spans:
    """Spans kept in memory: name, parent, and start and end on both
    clocks. The simulated clock exists once the simulator is built."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.records: List[Dict[str, Any]] = []
        self.sim_now = lambda: 0.0

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {"name": name, "parent": self.root,
                  "host_start": host_clock(), "sim_start": self.sim_now()}
        try:
            yield record
        finally:
            record["host_end"] = host_clock()
            record["sim_end"] = self.sim_now()
            record["host_s"] = record["host_end"] - record["host_start"]
            self.records.append(record)


def _digest(simulated: Dict[str, Any]) -> str:
    """SHA-256 over every simulated result; floats keep all their digits
    through ``repr``, so one changed bit changes the digest."""
    text = json.dumps(simulated, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_repeat(workload: str, seed: int, scale: float,
               traced: bool) -> Dict[str, Any]:
    """Run ``workload`` once and return its measurements.

    A traced repeat profiles the window and audits the committed history;
    its host timings are inflated and only its shares and counts are used.
    """
    spans = Spans(workload)
    run = WORKLOADS[workload](seed, scale, traced)
    profile: Optional[cProfile.Profile] = cProfile.Profile() if traced \
        else None

    with spans.span("setup.build"):
        run.build()
    spans.sim_now = lambda: run.sim.now
    with spans.span("setup.populate"):
        run.populate()
    with spans.span("setup.warmup"):
        run.warmup()

    run.open_window()
    gc.collect()
    cpu_start = time.process_time()
    with spans.span("run.window"):
        if profile is not None:
            profile.enable()
        try:
            run.run_window()
        finally:
            if profile is not None:
                profile.disable()
    run.close_window()
    with spans.span("run.drain"):
        run.drain()
    cpu_s = time.process_time() - cpu_start

    with spans.span("check"):
        problems = run.check()

    host = {record["name"]: record["host_s"] for record in spans.records}
    results = run.results()
    latency = results.pop("latency")
    if latency.count != results["ops_decided"]:
        problems.append(
            f"{latency.count} latency samples for "
            f"{results['ops_decided']} operations")
    simulated = {
        "window_s": run.window_s,
        "ops_decided": results["ops_decided"],
        "ops_committed": results["ops_committed"],
        "ops_failed": results["ops_failed"],
        "events": results["events"],
        "messages_sent": results["messages_sent"],
        "latency_p50_us": 1e6 * latency.percentile(50),
        "latency_p99_us": 1e6 * latency.percentile(99),
        "counters": results["counters"],
    }
    timed_s = host["run.window"] + host["run.drain"]
    report = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "setup_s": (host["setup.build"] + host["setup.populate"]
                    + host["setup.warmup"]),
        "timed_s": timed_s,
        "cpu_s": cpu_s,
        "wall_over_cpu": timed_s / cpu_s if cpu_s else 0.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": simulated,
        "sim_digest": _digest(simulated),
        "problems": problems,
        "spans": spans.records,
    }
    if profile is not None:
        report["layer_seconds"], report["calls"] = layers.attribute(profile)
    return report


if __name__ == "__main__":
    name, seed_arg, scale_arg, traced_arg = sys.argv[1:]
    json.dump(run_repeat(name, int(seed_arg), float(scale_arg),
                         traced_arg == "1"), sys.stdout)
    sys.stdout.write("\n")
