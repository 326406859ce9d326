"""Tests for static wear leveling."""

import pytest

from repro.flash import FlashDevice, FlashGeometry
from repro.ftl import GenericFTL, MFTLBackend, StaticWearLeveler
from repro.sim import Simulator
from repro.versioning import Version


GEOM = FlashGeometry(page_size=4096, pages_per_block=4, num_blocks=16,
                     num_channels=2)


def cold_hot_churn(sim, backend, rounds):
    """Cold keys written once; hot keys rewritten constantly."""
    def workload():
        timestamp = 0.0
        # Cold data fills a few blocks and is never touched again.
        for i in range(40):
            timestamp += 1.0
            yield backend.put(f"cold{i}", f"c{i}", Version(timestamp, 1))
        for i in range(rounds):
            timestamp += 1.0
            yield backend.put(f"hot{i % 4}", f"h{i}",
                              Version(timestamp, 1))
            backend.set_watermark(timestamp - 3.0)

    return sim.process(workload())


def cold_hot_lba_churn(sim, ftl, rounds):
    """The LBA twin: 24 cold LBAs written once, 4 hot ones rewritten."""
    def workload():
        for i in range(24):
            yield ftl.write(4 + i, f"c{i}")
        for i in range(rounds):
            yield ftl.write(i % 4, f"h{i}")

    return sim.process(workload())


class TestStaticWearLeveler:
    def test_validates_threshold(self):
        sim = Simulator()
        backend = MFTLBackend(sim, FlashDevice(sim, GEOM))
        with pytest.raises(ValueError):
            StaticWearLeveler(backend, threshold=0)

    def test_reduces_wear_spread(self):
        def spread(with_leveler):
            sim = Simulator()
            device = FlashDevice(sim, GEOM)
            backend = MFTLBackend(sim, device, packing_delay=0.1e-3)
            if with_leveler:
                StaticWearLeveler(backend, threshold=4,
                                  interval=5e-3).start()
            proc = cold_hot_churn(sim, backend, rounds=3000)
            sim.run_until_event(proc)
            wears = device.chip.wear_counters()
            return max(wears) - min(wears)

        unleveled = spread(with_leveler=False)
        leveled = spread(with_leveler=True)
        assert leveled < unleveled, (
            f"leveler did not reduce wear spread: {leveled} vs "
            f"{unleveled}")

    def test_migrations_preserve_cold_data(self):
        sim = Simulator()
        device = FlashDevice(sim, GEOM)
        backend = MFTLBackend(sim, device, packing_delay=0.1e-3)
        leveler = StaticWearLeveler(backend, threshold=4, interval=5e-3)
        leveler.start()
        sim.run_until_event(cold_hot_churn(sim, backend, rounds=3000))
        assert leveler.migrations > 0
        for i in range(40):
            result = sim.run_until_event(backend.get(f"cold{i}"))
            assert result is not None and result[1] == f"c{i}"

    def test_idle_device_never_migrates(self):
        sim = Simulator()
        backend = MFTLBackend(sim, FlashDevice(sim, GEOM))
        leveler = StaticWearLeveler(backend, interval=5e-3)
        leveler.start()
        sim.run(until=0.2)
        assert leveler.migrations == 0


class TestStaticWearLevelerOnGenericFTL:
    def _run(self, with_leveler):
        sim = Simulator()
        device = FlashDevice(sim, GEOM)
        ftl = GenericFTL(sim, device)
        leveler = StaticWearLeveler(ftl, threshold=4, interval=5e-3)
        if with_leveler:
            leveler.start()
        sim.run_until_event(cold_hot_lba_churn(sim, ftl, rounds=3000))
        wears = device.chip.wear_counters()
        return sim, ftl, leveler, max(wears) - min(wears)

    def test_reduces_wear_spread(self):
        _, _, _, unleveled = self._run(with_leveler=False)
        _, _, leveler, leveled = self._run(with_leveler=True)
        assert (unleveled, leveled, leveler.migrations) == (75, 4, 50)

    def test_migrations_preserve_cold_data(self):
        sim, ftl, leveler, _ = self._run(with_leveler=True)
        assert leveler.migrations > 0
        for i in range(24):
            assert sim.run_until_event(ftl.read(4 + i)) == f"c{i}"
