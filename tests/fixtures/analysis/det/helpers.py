"""DET fixture: interprocedural wall-clock taint for the golden test.

``sample_latency`` reads the wall clock directly, ``jitter``
launders the value through one more hop, and
``Collector`` sinks it into server state and simulator scheduling —
the DET101 cases no single-module rule can see.
"""

import time


def sample_latency():
    return time.time() * 1e-3


def jitter():
    return sample_latency() + 1.0


def simulated_delay(sim):
    return sim.now + 1.0  # derived from simulated time: not tainted


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.started_at = 0.0
        self.deadline = 0.0

    def record_start(self):
        self.started_at = jitter()  # DET101: tainted value into state

    def wait(self):
        yield self.sim.timeout(jitter())  # DET101: tainted scheduling

    def plan(self):
        self.deadline = simulated_delay(self.sim)  # clean
