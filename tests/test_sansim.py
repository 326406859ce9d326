"""Unit tests for the tie-break kernel and its policies
(``repro.sim.tiebreak``).

Audited cells that run on it (replay, CLI) live in
``test_sansim_explorer.py``; schedule-equivalence against the golden
fingerprints lives in ``test_sansim_fingerprints.py``. This file covers
the pieces in isolation: tie-break policies and the kernel's lockstep
behaviour.
"""

import pytest

from repro.sim.core import Simulator
from repro.sim.tiebreak import (
    FifoTieBreak,
    RandomTieBreak,
    TracedSimulator,
    make_policy,
)


class TestPolicies:
    def test_fifo_always_first(self):
        policy = FifoTieBreak()
        assert policy.choose([(0.0, 1, None), (0.0, 2, None)]) == 0

    def test_random_is_seed_deterministic(self):
        tied = [(0.0, seq, None) for seq in range(5)]
        a = [RandomTieBreak(3).choose(tied) for _ in range(20)]
        b = [RandomTieBreak(3).choose(tied) for _ in range(20)]
        c = [RandomTieBreak(4).choose(tied) for _ in range(20)]
        assert a == b
        assert a != c
        assert all(0 <= i < 5 for i in a)

    def test_make_policy_validates(self):
        assert make_policy("fifo", 0).name == "fifo"
        assert make_policy("random", 1).name == "random"
        with pytest.raises(ValueError, match="unknown tie-break"):
            make_policy("targeted", 1)
        with pytest.raises(ValueError, match="unknown tie-break"):
            make_policy("bogus", 0)


def _run_schedule(sim):
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append((name, sim.now))

    delays = [0.003, 0.001, 0.001, 0.002, 0.001, 0.002]
    for index, delay in enumerate(delays):
        sim.process(proc(f"p{index}", delay))
    sim.run()
    return order


class TestTracedKernel:
    def test_fifo_is_lockstep_with_plain_kernel(self):
        plain_sim = Simulator()
        plain = _run_schedule(plain_sim)
        traced_sim = TracedSimulator(tie_break=FifoTieBreak())
        traced = _run_schedule(traced_sim)
        assert traced == plain
        assert traced_sim.events_processed == plain_sim.events_processed

    def test_random_tie_break_permutes_but_loses_nothing(self):
        plain = _run_schedule(Simulator())
        shuffled = _run_schedule(TracedSimulator(
            tie_break=RandomTieBreak(2)))
        assert sorted(shuffled) == sorted(plain)

    def test_random_tie_break_is_replayable(self):
        first = _run_schedule(TracedSimulator(tie_break=RandomTieBreak(5)))
        second = _run_schedule(TracedSimulator(tie_break=RandomTieBreak(5)))
        assert first == second

    def test_plain_simulator_has_no_tracer(self):
        # The kernels carry no instrumentation seam: the explorer's
        # only lever is the tie-break policy.
        assert not hasattr(Simulator(), "tracer")
        assert not hasattr(TracedSimulator(), "tracer")
