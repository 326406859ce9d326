"""Unit and property tests for clock synchronization models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import (
    CLOCK_PRESETS,
    ClockEnsemble,
    PerfectClock,
    SyncedClock,
    make_clock,
    max_pairwise_skew,
    mean_pairwise_skew,
)
from repro.sim import SeededRng, Simulator


class TestPerfectClock:
    def test_tracks_true_time(self):
        sim = Simulator()
        clock = PerfectClock(sim)
        sim.run(until=5.0)
        assert clock.now() == pytest.approx(5.0)
        assert clock.offset() == 0.0


class TestSyncedClock:
    def test_offset_bounded_by_residual_and_drift(self):
        sim = Simulator()
        rng = SeededRng(3)
        clock = SyncedClock(sim, rng, residual_std=1e-4, drift_ppm=10,
                            sync_interval=2.0)
        worst = 0.0
        for step in range(200):
            sim.run(until=(step + 1) * 0.05)
            worst = max(worst, abs(clock.offset()))
        # 6 sigma of residual + worst-case drift accumulation over 2s.
        assert worst < 6 * 1e-4 + 10e-6 * 2.0

    def test_monotonic_across_sync_rounds(self):
        sim = Simulator()
        rng = SeededRng(11)
        clock = SyncedClock(sim, rng, residual_std=5e-3, drift_ppm=100,
                            sync_interval=0.5)
        last = clock.now()
        for step in range(500):
            sim.run(until=(step + 1) * 0.01)
            reading = clock.now()
            assert reading > last
            last = reading

    def test_residual_redrawn_each_round(self):
        sim = Simulator()
        rng = SeededRng(5)
        clock = SyncedClock(sim, rng, residual_std=1e-3, drift_ppm=0,
                            sync_interval=1.0)
        offsets = set()
        for step in range(10):
            sim.run(until=step + 0.5)
            offsets.add(round(clock.offset(), 9))
        assert len(offsets) > 5

    def test_rejects_bad_parameters(self):
        sim = Simulator()
        rng = SeededRng(0)
        with pytest.raises(ValueError):
            SyncedClock(sim, rng, residual_std=-1.0)
        with pytest.raises(ValueError):
            SyncedClock(sim, rng, residual_std=1.0, sync_interval=0.0)

    def test_deterministic_for_seed(self):
        readings = []
        for _ in range(2):
            sim = Simulator()
            clock = SyncedClock(sim, SeededRng(42), residual_std=1e-4)
            run = []
            for step in range(20):
                sim.run(until=(step + 1) * 0.3)
                run.append(clock.now())
            readings.append(run)
        assert readings[0] == readings[1]


class TestCalibration:
    @staticmethod
    def _measured_mean_skew(preset, n_clients=40, samples=50):
        sim = Simulator()
        rng = SeededRng(123)
        clocks = [make_clock(preset, sim, rng.substream(f"c{i}"), f"c{i}")
                  for i in range(n_clients)]
        total = 0.0
        for step in range(samples):
            sim.run(until=(step + 1) * 1.7)
            total += mean_pairwise_skew(clocks)
        return total / samples

    def test_ptp_software_mean_skew_matches_paper(self):
        measured = self._measured_mean_skew("ptp-sw")
        paper = CLOCK_PRESETS["ptp-sw"].mean_pairwise_skew
        assert measured == pytest.approx(paper, rel=0.25)

    def test_ntp_mean_skew_matches_paper(self):
        measured = self._measured_mean_skew("ntp")
        paper = CLOCK_PRESETS["ntp"].mean_pairwise_skew
        assert measured == pytest.approx(paper, rel=0.25)

    def test_ntp_skew_much_larger_than_ptp(self):
        ptp = self._measured_mean_skew("ptp-sw", n_clients=10, samples=20)
        ntp = self._measured_mean_skew("ntp", n_clients=10, samples=20)
        assert ntp > 10 * ptp


class TestPresetsAndEnsemble:
    def test_all_presets_construct(self):
        sim = Simulator()
        rng = SeededRng(1)
        for preset in CLOCK_PRESETS:
            clock = make_clock(preset, sim, rng.substream(preset), preset)
            assert clock.now() is not None

    def test_first_readings_of_every_preset_are_pinned(self):
        # offset() at 0.5 s, 3 s and 40 s under seed 2017: a change to a
        # row, or to how SyncedClock draws from its stream, moves one.
        expected = {
            "perfect": [0.0, 0.0, 0.0],
            "ptp-sw": [-1.5175714210058366e-05, 6.249910808397985e-05,
                       9.23739521851985e-06],
            "ptp-hw": [-4.0105975468440747e-07, -4.39481711911327e-07,
                       5.705031895786306e-07],
            "dtp": [2.4923762165229846e-07, -3.4032881002232784e-07,
                    -4.3736041988040597e-07],
            "ntp": [-0.0017165412248922318, -0.001778809728286923,
                    0.0006560739071090893],
        }
        assert list(CLOCK_PRESETS) == list(expected)
        for preset, offsets in expected.items():
            sim = Simulator()
            clock = make_clock(
                preset, sim, SeededRng(2017).substream(preset), preset)
            readings = []
            for until in (0.5, 3.0, 40.0):
                sim.run(until=until)
                readings.append(clock.offset())
            assert readings == offsets, preset

    def test_unknown_preset_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="unknown clock preset"):
            make_clock("sundial", sim, SeededRng(0), "x")

    def test_ensemble_memoizes_per_node(self):
        sim = Simulator()
        ensemble = ClockEnsemble(sim, SeededRng(9), preset="ptp-sw")
        a1 = ensemble.clock_for("node-a")
        a2 = ensemble.clock_for("node-a")
        b = ensemble.clock_for("node-b")
        assert a1 is a2
        assert a1 is not b
        assert len(ensemble.clocks) == 2

    def test_ensemble_clocks_independent_of_creation_order(self):
        def offsets(order):
            sim = Simulator()
            ensemble = ClockEnsemble(sim, SeededRng(77), preset="ntp")
            clocks = {name: ensemble.clock_for(name) for name in order}
            sim.run(until=1.0)
            return {name: clock.offset() for name, clock in clocks.items()}

        first = offsets(["a", "b", "c"])
        second = offsets(["c", "a", "b"])
        assert first == second

    def test_skew_helpers(self):
        sim = Simulator()
        clocks = [PerfectClock(sim) for _ in range(3)]
        assert mean_pairwise_skew(clocks) == 0.0
        assert max_pairwise_skew(clocks) == 0.0
        assert mean_pairwise_skew(clocks[:1]) == 0.0


class TestMonotonicityProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        residual_us=st.floats(min_value=0.0, max_value=5000.0),
        steps=st.integers(min_value=2, max_value=60),
    )
    def test_readings_strictly_increase(self, seed, residual_us, steps):
        sim = Simulator()
        clock = SyncedClock(
            sim, SeededRng(seed), residual_std=residual_us * 1e-6,
            drift_ppm=100, sync_interval=0.25)
        previous = clock.now()
        for step in range(steps):
            sim.run(until=(step + 1) * 0.1)
            current = clock.now()
            assert current > previous
            previous = current

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_offset_is_finite(self, seed):
        sim = Simulator()
        clock = make_clock("ntp", sim, SeededRng(seed), "ntp")
        sim.run(until=3.0)
        assert math.isfinite(clock.offset())
