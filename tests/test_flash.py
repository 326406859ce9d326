"""Tests for the flash chip and timed device."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import (
    AddressError,
    FlashChip,
    FlashDevice,
    FlashError,
    FlashGeometry,
    FlashTiming,
    ProgramError,
    ReadError,
)
from repro.sim import Simulator


SMALL = FlashGeometry(page_size=4096, pages_per_block=4, num_blocks=8,
                      num_channels=2)


class TestGeometry:
    def test_derived_quantities(self):
        geom = FlashGeometry(page_size=4096, pages_per_block=32,
                             num_blocks=100, num_channels=4)
        assert geom.total_pages == 3200
        assert geom.capacity_bytes == 3200 * 4096

    def test_channel_page_striping(self):
        geom = SMALL  # 4 pages/block, 2 channels
        assert [geom.channel_of(0, p) for p in range(4)] == [0, 1, 0, 1]
        assert [geom.channel_of(1, p) for p in range(4)] == [0, 1, 0, 1]

    def test_consecutive_pages_hit_distinct_channels(self):
        geom = FlashGeometry(page_size=4096, pages_per_block=32,
                             num_blocks=8, num_channels=8)
        channels = {geom.channel_of(0, p) for p in range(8)}
        assert len(channels) == 8

    @pytest.mark.parametrize("kwargs", [
        {"page_size": 0},
        {"pages_per_block": 0},
        {"num_blocks": 0},
        {"num_channels": 0},
        {"num_blocks": 2, "num_channels": 4},
    ])
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(ValueError):
            FlashGeometry(**kwargs)

    def test_invalid_timing(self):
        with pytest.raises(ValueError):
            FlashTiming(read_page=-1.0)


class TestFlashChip:
    def test_program_then_read(self):
        chip = FlashChip(SMALL)
        chip.program(0, 0, "hello")
        assert chip.read(0, 0) == "hello"

    def test_program_same_page_twice_rejected(self):
        chip = FlashChip(SMALL)
        chip.program(0, 0, "a")
        chip.program(0, 1, "b")
        with pytest.raises(ProgramError, match="erase-before-write"):
            chip.program(0, 0, "c")

    def test_out_of_order_program_allowed_within_superblock(self):
        # Pages of a (super)block stripe across dies, so programs need not
        # land in index order; only erase-before-write is enforced.
        chip = FlashChip(SMALL)
        chip.program(0, 2, "later-page-first")
        chip.program(0, 0, "earlier-page-second")
        assert chip.read(0, 2) == "later-page-first"
        assert chip.is_programmed(0, 0)
        assert not chip.is_programmed(0, 1)

    def test_read_unprogrammed_page_rejected(self):
        chip = FlashChip(SMALL)
        with pytest.raises(ReadError):
            chip.read(0, 0)

    def test_erase_resets_pages_and_counts_wear(self):
        chip = FlashChip(SMALL)
        for page in range(SMALL.pages_per_block):
            chip.program(1, page, page)
        assert chip.programmed_pages(1) == SMALL.pages_per_block
        chip.erase(1)
        assert chip.programmed_pages(1) == 0
        assert chip.erase_count(1) == 1
        chip.program(1, 0, "fresh")
        assert chip.read(1, 0) == "fresh"

    def test_address_bounds(self):
        chip = FlashChip(SMALL)
        with pytest.raises(AddressError):
            chip.program(99, 0, "x")
        with pytest.raises(AddressError):
            chip.program(0, 99, "x")
        with pytest.raises(AddressError):
            chip.read(-1, 0)

    def test_wear_counters_track_erases(self):
        chip = FlashChip(SMALL)
        chip.program(0, 0, "x")
        chip.erase(0)
        chip.program(0, 0, "y")
        chip.erase(0)
        counters = chip.wear_counters()
        assert counters[0] == 2
        assert sum(counters) == 2

    @settings(max_examples=30, deadline=None)
    @given(writes=st.lists(
        st.integers(min_value=0, max_value=SMALL.num_blocks - 1),
        min_size=1, max_size=60))
    def test_sequential_program_invariant(self, writes):
        """However writes interleave across blocks, each block's pages are
        programmed strictly sequentially, and reads below the frontier
        always return what was written."""
        chip = FlashChip(SMALL)
        expected = {}
        frontiers = {}
        for i, block in enumerate(writes):
            frontier = frontiers.get(block, 0)
            if frontier >= SMALL.pages_per_block:
                chip.erase(block)
                expected = {
                    key: value for key, value in expected.items()
                    if key[0] != block
                }
                frontier = 0
            chip.program(block, frontier, f"data-{i}")
            frontiers[block] = frontier + 1
            expected[(block, frontier)] = f"data-{i}"
        for (block, page), value in expected.items():
            assert chip.read(block, page) == value


class TestFlashDevice:
    def test_read_latency(self):
        sim = Simulator()
        device = FlashDevice(sim, SMALL)
        results = {}

        def proc():
            yield device.write_page(0, 0, "v")
            t0 = sim.now
            value = yield device.read_page(0, 0)
            results["latency"] = sim.now - t0
            results["value"] = value

        sim.process(proc())
        sim.run()
        assert results["value"] == "v"
        assert results["latency"] == pytest.approx(device.timing.read_page)

    def test_same_channel_serializes(self):
        sim = Simulator()
        device = FlashDevice(sim, SMALL)
        done = []

        def writer(block, page):
            yield device.write_page(block, page, "x")
            done.append(sim.now)

        # page 0 of blocks 0 and 2 both map to channel 0
        sim.process(writer(0, 0))
        sim.process(writer(2, 0))
        sim.run()
        assert done == pytest.approx(
            [device.timing.write_page, 2 * device.timing.write_page])

    def test_different_channels_parallel(self):
        sim = Simulator()
        device = FlashDevice(sim, SMALL)
        done = []

        def writer(block, page):
            yield device.write_page(block, page, "x")
            done.append(sim.now)

        # consecutive pages of one block stripe across both channels;
        # issue them in frontier order in the same event step.
        sim.process(writer(0, 0))  # channel 0
        sim.process(writer(0, 1))  # channel 1
        sim.run()
        assert done == pytest.approx(
            [device.timing.write_page, device.timing.write_page])

    def test_queue_depth_bounds_inflight(self):
        sim = Simulator()
        device = FlashDevice(sim, SMALL, queue_depth=1)
        done = []

        def writer(block):
            yield device.write_page(block, 0, "x")
            done.append(sim.now)

        sim.process(writer(0))
        sim.process(writer(1))  # different channel, but queue depth 1
        sim.run()
        assert done == pytest.approx(
            [device.timing.write_page, 2 * device.timing.write_page])

    def test_stats_accumulate(self):
        sim = Simulator()
        device = FlashDevice(sim, SMALL)

        def proc():
            yield device.write_page(0, 0, "a")
            yield device.read_page(0, 0)
            for page in range(1, SMALL.pages_per_block):
                yield device.write_page(0, page, "b")
            yield device.erase_block(0)

        sim.process(proc())
        sim.run()
        assert device.stats.page_writes == SMALL.pages_per_block
        assert device.stats.page_reads == 1
        assert device.stats.block_erases == 1
        assert device.stats.total_ops == SMALL.pages_per_block + 2

    def test_erase_then_write_allows_reuse(self):
        sim = Simulator()
        device = FlashDevice(sim, SMALL)
        values = []

        def proc():
            for page in range(SMALL.pages_per_block):
                yield device.write_page(0, page, f"old-{page}")
            yield device.erase_block(0)
            yield device.write_page(0, 0, "new")
            value = yield device.read_page(0, 0)
            values.append(value)

        sim.process(proc())
        sim.run()
        assert values == ["new"]

    def test_invalid_queue_depth(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FlashDevice(sim, SMALL, queue_depth=0)

    def test_idle_read_is_two_heap_events_and_no_process(
            self, created_processes):
        sim = Simulator()
        device = FlashDevice(sim, SMALL)
        device.chip.program(0, 0, "v")
        done = device.read_page(0, 0)
        sim.run()
        assert done.value == "v"
        assert sim.now == pytest.approx(device.timing.read_page)
        # The service end and the completion.
        assert (sim.events_processed, created_processes) == (2, [])

    def test_one_channel_serves_commands_fifo(self):
        sim = Simulator()
        device = FlashDevice(sim, SMALL)
        done = []

        def writer(block):
            yield device.write_page(block, 0, block)
            done.append((block, sim.now))

        # Page 0 of every block is on channel 0.
        for block in (3, 0, 2, 1):
            sim.process(writer(block))
        sim.run()
        write = device.timing.write_page
        assert [block for block, _ in done] == [3, 0, 2, 1]
        assert [at for _, at in done] == pytest.approx(
            [write, 2 * write, 3 * write, 4 * write])

    def test_queue_depth_bounds_commands_on_distinct_channels(self):
        geometry = FlashGeometry(page_size=4096, pages_per_block=4,
                                 num_blocks=8, num_channels=4)
        sim = Simulator()
        device = FlashDevice(sim, geometry, queue_depth=2)
        done = []

        def writer(page):
            yield device.write_page(0, page, page)
            done.append((page, sim.now))

        for page in range(4):  # one channel each
            sim.process(writer(page))
        sim.run()
        write = device.timing.write_page
        assert done == [(0, pytest.approx(write)), (1, pytest.approx(write)),
                        (2, pytest.approx(2 * write)),
                        (3, pytest.approx(2 * write))]

    def test_chip_error_fails_only_its_own_command(self):
        sim = Simulator()
        device = FlashDevice(sim, SMALL, queue_depth=1, endurance=1)
        device.chip.program(0, 0, "old")
        device.chip.erase(0)
        device.chip.program(0, 0, "worn")
        outcomes = []

        def issue(name, command):
            try:
                value = yield command
            except FlashError as error:
                outcomes.append((name, type(error).__name__, sim.now))
            else:
                outcomes.append((name, value, sim.now))

        # One slot, one channel: each command queues behind the last.
        sim.process(issue("erase", device.erase_block(0)))
        sim.process(issue("read", device.read_page(1, 0)))
        sim.process(issue("write", device.write_page(2, 0, "new")))
        sim.run()
        timing = device.timing
        assert outcomes == [
            ("erase", "WearOutError", pytest.approx(timing.erase_block)),
            ("read", "ReadError",
             pytest.approx(timing.erase_block + timing.read_page)),
            ("write", None, pytest.approx(
                timing.erase_block + timing.read_page + timing.write_page)),
        ]
        assert device.chip.read(2, 0) == "new"
        assert (device.stats.block_erases, device.stats.page_reads,
                device.stats.page_writes) == (0, 0, 1)
