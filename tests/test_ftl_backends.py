"""Tests for the storage engines: DRAM, GenericFTL, MFTL, VFTL."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashDevice, FlashGeometry
from repro.ftl import (
    CapacityError,
    Cpu,
    DRAMBackend,
    GenericFTL,
    MFTLBackend,
    PagePacker,
    VFTLBackend,
    retained_versions,
)
from repro.sim import Simulator
from repro.sim.rng import SeededRng
from repro.versioning import Version
from repro.workloads.microbench import run_kv_microbench


GEOM = FlashGeometry(page_size=4096, pages_per_block=4, num_blocks=16,
                     num_channels=2)


def run(sim, process, limit=None):
    return sim.run_until_event(process, limit=limit)


def v(ts, client=0):
    return Version(ts, client)


class TestRetainedVersions:
    def test_keeps_all_above_watermark(self):
        versions = [v(5), v(4), v(3)]
        assert retained_versions(versions, 1.0) == versions

    def test_keeps_youngest_at_or_below_watermark(self):
        versions = [v(5), v(4), v(3), v(2)]
        assert retained_versions(versions, 4.0) == [v(5), v(4)]

    def test_watermark_equal_keeps_that_version(self):
        versions = [v(5), v(3)]
        assert retained_versions(versions, 3.0) == [v(5), v(3)]

    def test_everything_below_keeps_only_youngest(self):
        versions = [v(3), v(2), v(1)]
        assert retained_versions(versions, 10.0) == [v(3)]

    def test_empty(self):
        assert retained_versions([], 1.0) == []

    @settings(max_examples=50, deadline=None)
    @given(
        stamps=st.lists(st.floats(min_value=0, max_value=100),
                        min_size=1, max_size=20, unique=True),
        watermark=st.floats(min_value=-1, max_value=101),
    )
    def test_snapshot_reads_at_or_after_watermark_survive(
            self, stamps, watermark):
        """Any snapshot read at ts >= watermark finds the same version
        before and after trimming — the GC safety property of §3.1."""
        versions = [v(ts) for ts in sorted(stamps, reverse=True)]
        kept = retained_versions(versions, watermark)

        def youngest_leq(vs, ts):
            for candidate in vs:
                if candidate.timestamp <= ts:
                    return candidate
            return None

        for snapshot_ts in list(stamps) + [watermark, 100.5]:
            if snapshot_ts < watermark:
                continue
            assert youngest_leq(versions, snapshot_ts) == \
                youngest_leq(kept, snapshot_ts)


class TestPagePacker:
    def test_full_page_flushes_immediately(self):
        sim = Simulator()
        pages = []

        def write_page(records):
            yield sim.timeout(100e-6)
            pages.append(tuple(records))
            return len(pages) - 1

        packer = PagePacker(sim, write_page, records_per_page=4,
                            packing_delay=1e-3)
        events = [packer.submit(i) for i in range(4)]
        sim.run(until=0.5e-3)
        assert pages == [(0, 1, 2, 3)]
        assert [e.value for e in events] == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_deadline_flushes_partial_page(self):
        sim = Simulator()
        pages = []

        def write_page(records):
            yield sim.timeout(100e-6)
            pages.append(tuple(records))
            return len(pages) - 1

        packer = PagePacker(sim, write_page, records_per_page=8,
                            packing_delay=1e-3)
        packer.submit("a")
        packer.submit("b")
        sim.run(until=0.9e-3)
        assert pages == []
        sim.run(until=1.2e-3)
        assert pages == [("a", "b")]

    def test_zero_delay_flushes_each_record(self):
        sim = Simulator()
        pages = []

        def write_page(records):
            yield sim.timeout(1e-6)
            pages.append(tuple(records))
            return len(pages) - 1

        packer = PagePacker(sim, write_page, records_per_page=8,
                            packing_delay=0.0)
        packer.submit("x")
        packer.submit("y")
        sim.run()
        assert pages == [("x",), ("y",)]

    def test_overflow_batches_split(self):
        sim = Simulator()
        pages = []

        def write_page(records):
            yield sim.timeout(1e-6)
            pages.append(tuple(records))
            return len(pages) - 1

        packer = PagePacker(sim, write_page, records_per_page=2,
                            packing_delay=1e-3)
        for i in range(5):
            packer.submit(i)
        sim.run(until=2e-3)
        assert pages == [(0, 1), (2, 3), (4,)]

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PagePacker(sim, None, records_per_page=0)
        with pytest.raises(ValueError):
            PagePacker(sim, None, records_per_page=4, packing_delay=-1)


class TestDRAMBackend:
    def test_put_get_roundtrip(self):
        sim = Simulator()
        backend = DRAMBackend(sim)
        run(sim, backend.put("k", "v1", v(1.0)))
        result = run(sim, backend.get("k"))
        assert result == (v(1.0), "v1")

    def test_snapshot_get(self):
        sim = Simulator()
        backend = DRAMBackend(sim)
        run(sim, backend.put("k", "old", v(1.0)))
        run(sim, backend.put("k", "new", v(2.0)))
        assert run(sim, backend.get("k", max_timestamp=1.5)) == \
            (v(1.0), "old")
        assert run(sim, backend.get("k", max_timestamp=2.5)) == \
            (v(2.0), "new")
        assert run(sim, backend.get("k", max_timestamp=0.5)) is None

    def test_get_missing_key(self):
        sim = Simulator()
        backend = DRAMBackend(sim)
        assert run(sim, backend.get("nope")) is None

    def test_versions_sorted_despite_out_of_order_puts(self):
        sim = Simulator()
        backend = DRAMBackend(sim)
        run(sim, backend.put("k", "b", v(2.0)))
        run(sim, backend.put("k", "a", v(1.0)))
        run(sim, backend.put("k", "c", v(3.0)))
        assert backend.versions_of("k") == [v(3.0), v(2.0), v(1.0)]

    def test_client_id_breaks_timestamp_ties(self):
        sim = Simulator()
        backend = DRAMBackend(sim)
        run(sim, backend.put("k", "from-c1", Version(1.0, 1)))
        run(sim, backend.put("k", "from-c2", Version(1.0, 2)))
        assert run(sim, backend.get("k", max_timestamp=1.0)) == \
            (Version(1.0, 2), "from-c2")

    def test_watermark_trims_on_put(self):
        sim = Simulator()
        backend = DRAMBackend(sim)
        for ts in (1.0, 2.0, 3.0):
            run(sim, backend.put("k", f"v{ts}", v(ts)))
        backend.set_watermark(2.5)
        run(sim, backend.put("k", "v4", v(4.0)))
        assert backend.versions_of("k") == [v(4.0), v(3.0), v(2.0)]

    def test_watermark_never_regresses(self):
        sim = Simulator()
        backend = DRAMBackend(sim)
        backend.set_watermark(5.0)
        backend.set_watermark(3.0)
        assert backend.watermark == 5.0

    def test_delete_removes_all_versions(self):
        sim = Simulator()
        backend = DRAMBackend(sim)
        run(sim, backend.put("k", "a", v(1.0)))
        run(sim, backend.put("k", "b", v(2.0)))
        run(sim, backend.delete("k"))
        assert not backend.contains("k")
        assert run(sim, backend.get("k")) is None

    def test_write_latency_modelled(self):
        sim = Simulator()
        backend = DRAMBackend(sim, write_latency=1e-6, op_cpu=0.0)
        process = backend.put("k", "v", v(1.0))
        sim.run()
        assert backend.stats.mean_put_latency == pytest.approx(1e-6)
        assert process.processed


class TestGenericFTL:
    def _make(self, **kwargs):
        sim = Simulator()
        device = FlashDevice(sim, GEOM)
        ftl = GenericFTL(sim, device, **kwargs)
        return sim, device, ftl

    def test_write_read_roundtrip(self):
        sim, _, ftl = self._make()
        run(sim, ftl.write(0, "payload"))
        assert run(sim, ftl.read(0)) == "payload"

    def test_overwrite_remaps(self):
        sim, device, ftl = self._make()
        run(sim, ftl.write(0, "old"))
        run(sim, ftl.write(0, "new"))
        assert run(sim, ftl.read(0)) == "new"
        assert device.stats.page_writes == 2

    def test_read_unmapped_returns_none(self):
        sim, _, ftl = self._make()
        assert run(sim, ftl.read(5)) is None

    def test_trim_unmaps(self):
        sim, _, ftl = self._make()
        run(sim, ftl.write(3, "x"))
        ftl.trim(3)
        assert not ftl.is_mapped(3)
        assert run(sim, ftl.read(3)) is None

    def test_lba_bounds_enforced(self):
        sim, _, ftl = self._make()
        with pytest.raises(ValueError):
            ftl.write(ftl.usable_lbas, "x")
        with pytest.raises(ValueError):
            ftl.read(-1)

    def test_usable_lbas_reflect_reserve(self):
        sim, _, ftl = self._make(reserve_fraction=0.10)
        assert ftl.usable_lbas == int(GEOM.total_pages * 0.9)

    def test_gc_reclaims_space_under_churn(self):
        """Overwrite a small working set far past raw capacity; GC must
        keep up and data must stay correct."""
        sim, device, ftl = self._make()
        total_writes = GEOM.total_pages * 4
        latest = {}

        def churn():
            for i in range(total_writes):
                lba = i % 8
                latest[lba] = f"value-{i}"
                yield ftl.write(lba, f"value-{i}")

        proc = sim.process(churn())
        sim.run_until_event(proc)
        assert device.stats.block_erases > 0
        assert ftl.gc_runs > 0
        for lba, expected in latest.items():
            assert run(sim, ftl.read(lba)) == expected

    def test_wear_spread_across_blocks(self):
        sim, device, ftl = self._make()
        total_writes = GEOM.total_pages * 6

        def churn():
            for i in range(total_writes):
                yield ftl.write(i % 4, i)

        sim.run_until_event(sim.process(churn()))
        wear = device.chip.wear_counters()
        assert max(wear) > 0
        # Least-worn-first selection keeps wear within a tight band.
        assert max(wear) - min(wear) <= 3

    def test_capacity_error_when_full_of_live_data(self):
        # With no overprovisioning reserve, filling every LBA with live
        # data wedges the device: GC has nothing to reclaim.
        sim, device, ftl = self._make(reserve_fraction=0.0)

        def fill():
            for lba in range(ftl.usable_lbas):
                yield ftl.write(lba, f"live-{lba}")

        with pytest.raises(CapacityError):
            sim.run_until_event(sim.process(fill()))

    def test_reserve_prevents_wedging(self):
        """With the paper's 10 % reserve, a full logical space plus
        rewrite churn keeps making progress (GC always has headroom)."""
        sim, device, ftl = self._make()

        def fill_and_churn():
            for lba in range(ftl.usable_lbas):
                yield ftl.write(lba, f"live-{lba}")
            for i in range(GEOM.total_pages):
                yield ftl.write(i % ftl.usable_lbas, f"rewrite-{i}")

        proc = sim.process(fill_and_churn())
        sim.run_until_event(proc)
        assert proc.ok


def _mftl(sim, multi_version=True, packing_delay=1e-3, geometry=GEOM):
    device = FlashDevice(sim, geometry)
    backend = MFTLBackend(sim, device, packing_delay=packing_delay,
                          multi_version=multi_version)
    return device, backend


class TestRequestPathCost:
    """Exact kernel work of the request path on an idle device."""

    def test_charge_on_a_free_core_is_one_event(self):
        sim = Simulator()
        cpu = Cpu(sim)
        charged = cpu.charge(2.2e-6)
        sim.run()
        assert charged.processed
        assert (sim.events_processed, sim.now, cpu.busy_time) == (
            1, 2.2e-6, 2.2e-6)

    def test_charges_queue_fifo_behind_a_busy_core(self):
        sim = Simulator()
        cpu = Cpu(sim)
        ends = []
        for seconds in (3.0, 1.0, 2.0):
            cpu.charge(seconds).callbacks.append(
                lambda _, seconds=seconds: ends.append((seconds, sim.now)))
        sim.run()
        assert ends == [(3.0, 3.0), (1.0, 4.0), (2.0, 6.0)]
        assert (sim.events_processed, cpu.busy_time) == (3, 6.0)

    def test_mftl_get_from_flash_is_five_events_and_one_process(
            self, created_processes):
        sim = Simulator()
        device, backend = _mftl(sim)
        backend.bulk_load([("k", "v1", v(1.0))])
        sim.run()  # the collector starts and parks
        settled = sim.events_processed
        created_processes.clear()
        got = backend.get("k")
        sim.run()
        assert got.value == (v(1.0), "v1")
        assert device.stats.page_reads == 1
        # The get's bootstrap, the CPU charge, the page read's service
        # end and completion, and the get's own completion.
        assert (sim.events_processed - settled, created_processes) == (
            5, [got])


class TestMFTLBackend:
    def test_put_get_roundtrip(self):
        sim = Simulator()
        _, backend = _mftl(sim)
        run(sim, backend.put("k", "v1", v(1.0)))
        assert run(sim, backend.get("k")) == (v(1.0), "v1")

    def test_records_packed_eight_per_page(self):
        sim = Simulator()
        device, backend = _mftl(sim)
        assert backend.records_per_page == 8

        def puts():
            waits = [backend.put(f"k{i}", i, v(float(i + 1)))
                     for i in range(8)]
            yield sim.all_of(waits)

        sim.run_until_event(sim.process(puts()))
        assert device.stats.page_writes == 1

    def test_buffer_hit_while_packing(self):
        """A get issued while the record sits in the packer buffer is
        served from DRAM without a device read."""
        sim = Simulator()
        device, backend = _mftl(sim)
        results = {}

        def proc():
            backend.put("k", "fresh", v(1.0))  # don't wait for durability
            result = yield backend.get("k")
            results["value"] = result
            results["reads"] = device.stats.page_reads

        sim.run_until_event(sim.process(proc()))
        assert results["value"] == (v(1.0), "fresh")
        assert results["reads"] == 0

    def test_snapshot_reads(self):
        sim = Simulator()
        _, backend = _mftl(sim)
        run(sim, backend.put("k", "old", v(1.0)))
        run(sim, backend.put("k", "new", v(2.0)))
        assert run(sim, backend.get("k", max_timestamp=1.5)) == \
            (v(1.0), "old")
        assert run(sim, backend.get("k", max_timestamp=0.5)) is None

    def test_single_version_mode_supersedes(self):
        sim = Simulator()
        _, backend = _mftl(sim, multi_version=False)
        run(sim, backend.put("k", "old", v(1.0)))
        run(sim, backend.put("k", "new", v(2.0)))
        # The old snapshot is gone: a read in the past misses.
        assert run(sim, backend.get("k", max_timestamp=1.5)) is None
        assert run(sim, backend.get("k", max_timestamp=2.5)) == \
            (v(2.0), "new")
        assert backend.versions_of("k") == [v(2.0)]

    def test_delete(self):
        sim = Simulator()
        _, backend = _mftl(sim)
        run(sim, backend.put("k", "a", v(1.0)))
        run(sim, backend.delete("k"))
        assert run(sim, backend.get("k")) is None
        assert not backend.contains("k")

    def test_gc_preserves_live_data_under_churn(self):
        sim = Simulator()
        geometry = FlashGeometry(page_size=4096, pages_per_block=4,
                                 num_blocks=12, num_channels=2)
        device, backend = _mftl(sim, geometry=geometry)
        # capacity = 12*4*8 = 384 records; write 1200 across 10 keys.
        latest = {}

        def churn():
            timestamp = 0.0
            for i in range(1200):
                key = f"k{i % 10}"
                timestamp += 1.0
                latest[key] = (v(timestamp), f"value-{i}")
                yield backend.put(key, f"value-{i}", v(timestamp))
                backend.set_watermark(timestamp - 5.0)

        sim.run_until_event(sim.process(churn()))
        assert backend.stats.gc_runs > 0
        assert backend.stats.records_discarded > 0
        for key, (version, value) in latest.items():
            assert run(sim, backend.get(key)) == (version, value)

    def test_gc_retains_watermark_snapshot(self):
        """After heavy churn, a snapshot read at the watermark must still
        be satisfiable for every key — the §3.1 guarantee."""
        sim = Simulator()
        geometry = FlashGeometry(page_size=4096, pages_per_block=4,
                                 num_blocks=12, num_channels=2)
        _, backend = _mftl(sim, geometry=geometry)
        watermark = 0.0

        def churn():
            timestamp = 0.0
            for i in range(1000):
                key = f"k{i % 5}"
                timestamp += 1.0
                yield backend.put(key, f"value-{i}", v(timestamp))
                backend.set_watermark(timestamp - 10.0)

        sim.run_until_event(sim.process(churn()))
        watermark = backend.watermark
        for i in range(5):
            result = run(sim, backend.get(f"k{i}", max_timestamp=watermark))
            assert result is not None
            assert result[0].timestamp <= watermark

    def test_mean_latencies_tracked(self):
        sim = Simulator()
        _, backend = _mftl(sim)
        run(sim, backend.put("k", "v", v(1.0)))
        run(sim, backend.get("k"))
        assert backend.stats.mean_put_latency > 0
        assert backend.stats.mean_get_latency > 0


class TestVFTLBackend:
    def _make(self, sim, geometry=GEOM):
        device = FlashDevice(sim, geometry)
        backend = VFTLBackend(sim, device)
        return device, backend

    def test_put_get_roundtrip(self):
        sim = Simulator()
        _, backend = self._make(sim)
        run(sim, backend.put("k", "v1", v(1.0)))
        assert run(sim, backend.get("k")) == (v(1.0), "v1")

    def test_double_reserve_shrinks_usable_space(self):
        sim = Simulator()
        device = FlashDevice(sim, GEOM)
        backend = VFTLBackend(sim, device)
        assert backend.usable_lbas < backend.ftl.usable_lbas
        assert backend.usable_lbas == int(int(GEOM.total_pages * 0.9) * 0.9)

    def test_snapshot_reads(self):
        sim = Simulator()
        _, backend = self._make(sim)
        run(sim, backend.put("k", "old", v(1.0)))
        run(sim, backend.put("k", "new", v(2.0)))
        assert run(sim, backend.get("k", max_timestamp=1.5)) == \
            (v(1.0), "old")

    def test_buffer_hit_while_packing(self):
        sim = Simulator()
        device, backend = self._make(sim)
        results = {}

        def proc():
            backend.put("k", "fresh", v(1.0))
            result = yield backend.get("k")
            results["value"] = result

        sim.run_until_event(sim.process(proc()))
        assert results["value"] == (v(1.0), "fresh")

    def test_delete(self):
        sim = Simulator()
        _, backend = self._make(sim)
        run(sim, backend.put("k", "a", v(1.0)))
        run(sim, backend.delete("k"))
        assert run(sim, backend.get("k")) is None

    def test_gc_preserves_live_data_under_churn(self):
        sim = Simulator()
        geometry = FlashGeometry(page_size=4096, pages_per_block=4,
                                 num_blocks=16, num_channels=2)
        device, backend = self._make(sim, geometry)
        latest = {}

        def churn():
            timestamp = 0.0
            for i in range(1200):
                key = f"k{i % 10}"
                timestamp += 1.0
                latest[key] = (v(timestamp), f"value-{i}")
                yield backend.put(key, f"value-{i}", v(timestamp))
                backend.set_watermark(timestamp - 5.0)

        sim.run_until_event(sim.process(churn()))
        assert backend.stats.gc_runs > 0
        for key, (version, value) in latest.items():
            assert run(sim, backend.get(key)) == (version, value)

    def test_two_level_gc_both_engage(self):
        sim = Simulator()
        geometry = FlashGeometry(page_size=4096, pages_per_block=4,
                                 num_blocks=16, num_channels=2)
        device, backend = self._make(sim, geometry)

        def churn():
            timestamp = 0.0
            for i in range(1500):
                timestamp += 1.0
                yield backend.put(f"k{i % 8}", i, v(timestamp))
                backend.set_watermark(timestamp - 3.0)

        sim.run_until_event(sim.process(churn()))
        assert backend.stats.gc_runs > 0          # KV-layer GC
        assert backend.ftl.gc_runs > 0            # FTL-level GC
        assert device.stats.block_erases > 0


class TestBackendEquivalenceProperty:
    """All multi-version engines must agree with a reference model."""

    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.integers(min_value=0, max_value=4),   # key index
                st.integers(min_value=0, max_value=30),  # ts index
            ),
            min_size=1, max_size=40,
        ),
        backend_kind=st.sampled_from(["dram", "mftl", "vftl"]),
    )
    def test_matches_reference_model(self, ops, backend_kind):
        sim = Simulator()
        if backend_kind == "dram":
            backend = DRAMBackend(sim)
        elif backend_kind == "mftl":
            device = FlashDevice(sim, GEOM)
            backend = MFTLBackend(sim, device)
        else:
            device = FlashDevice(sim, GEOM)
            backend = VFTLBackend(sim, device)

        model = {}  # key -> {version: value}
        put_seq = 0
        for op, key_index, ts_index in ops:
            key = f"key{key_index}"
            timestamp = float(ts_index)
            if op == "put":
                put_seq += 1
                version = Version(timestamp, put_seq)
                value = f"val{put_seq}"
                run(sim, backend.put(key, value, version))
                model.setdefault(key, {})[version] = value
            elif op == "delete":
                run(sim, backend.delete(key))
                model.pop(key, None)
            else:
                result = run(sim, backend.get(key, max_timestamp=timestamp))
                expected = None
                candidates = [
                    (version, value)
                    for version, value in model.get(key, {}).items()
                    if version.timestamp <= timestamp
                ]
                if candidates:
                    expected = max(candidates, key=lambda pair: pair[0])
                assert result == expected


class TestPackerPlacementProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=60),
        per_page=st.integers(min_value=1, max_value=8),
        delay_us=st.sampled_from([0, 100, 1000]),
    )
    def test_every_record_placed_exactly_once(self, count, per_page,
                                              delay_us):
        """All submitted records land, each exactly once, at in-bounds
        offsets, with submission order preserved within each page."""
        sim = Simulator()
        pages = []

        def write_page(records):
            yield sim.timeout(50e-6)
            pages.append(tuple(records))
            return len(pages) - 1

        packer = PagePacker(sim, write_page, records_per_page=per_page,
                            packing_delay=delay_us * 1e-6)
        events = [packer.submit(i) for i in range(count)]
        sim.run(until=1.0)

        placements = [event.value for event in events]
        # each placement is (page_index, offset), unique and in bounds
        assert len(set(placements)) == count
        for page_index, offset in placements:
            assert 0 <= offset < per_page
            assert pages[page_index][offset] in range(count)
        # flattening pages in order reproduces submission order
        flattened = [record for page in pages for record in page]
        assert flattened == list(range(count))


class TestGcActiveSchedulePins:
    """Exact schedules with every collector running.

    The sweep and fingerprint goldens end with ``gc_runs == 0`` on VFTL
    and the generic FTL, so these pins are what holds a refactor of the
    shared store, pools and collector to the same event order. The
    numbers were recorded before the engines were merged; the shape
    assertions say what they mean (Table 1, §5.1).
    """

    GC_GEOM = FlashGeometry(page_size=4096, pages_per_block=32,
                            num_blocks=40, num_channels=32)

    #: kind -> (events, now, gets, puts, gc_runs, remapped, discarded,
    #:          page_reads, page_writes, block_erases)
    PINS = {
        "vftl": (102661, 0.08110109999999855, 4019, 11856, 785, 146, 9362,
                 4894, 1636, 20),
        "mftl": (80686, 0.08128459999999926, 4055, 11999, 17, 65, 9497,
                 4547, 1514, 17),
        "sftl": (81043, 0.08105719999999823, 4101, 12029, 17, 37, 12029,
                 4607, 1515, 17),
    }
    ENGINES = {"vftl": VFTLBackend, "mftl": MFTLBackend,
               "sftl": functools.partial(MFTLBackend, multi_version=False)}

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for kind, engine in self.ENGINES.items():
            sim = Simulator()
            device = FlashDevice(sim, self.GC_GEOM)
            backend = engine(sim, device)
            run_kv_microbench(
                sim, backend, SeededRng(1).substream(kind).substream("g25"),
                num_keys=2000, get_percent=25, duration=0.06, warmup=0.02,
                num_workers=32, version_window=0.005)
            out[kind] = (sim, device, backend)
        return out

    @pytest.mark.parametrize("kind", sorted(PINS))
    def test_kv_schedule_pinned(self, runs, kind):
        sim, device, backend = runs[kind]
        stats = backend.stats
        assert (sim.events_processed, sim.now, stats.gets, stats.puts,
                stats.gc_runs, stats.records_remapped,
                stats.records_discarded, device.stats.page_reads,
                device.stats.page_writes,
                device.stats.block_erases) == self.PINS[kind]

    def test_vftl_second_level_collector_pinned(self, runs):
        _, _, vftl = runs["vftl"]
        assert (vftl.ftl.gc_runs, vftl.ftl.pages_remapped) == (20, 131)

    def test_generic_ftl_churn_pinned(self):
        """Four writers rewrite 48 LBAs with read-back: most rewrites hit
        a writer's first three LBAs, every fifth walks its colder rest,
        so victims carry valid pages and the collector remaps."""
        sim = Simulator()
        device = FlashDevice(sim, GEOM)
        ftl = GenericFTL(sim, device)
        stale = []

        def writer(index):
            own = list(range(index, 48, 4))
            for i in range(250):
                lba = own[(i // 5) % len(own)] if i % 5 == 0 else own[i % 3]
                yield ftl.write(lba, (index, i))
                data = yield ftl.read(lba)
                if data != (index, i):
                    stale.append((index, i, data))

        for proc in [sim.process(writer(index)) for index in range(4)]:
            run(sim, proc)
        assert not stale
        assert (sim.events_processed, sim.now, ftl.gc_runs,
                ftl.pages_remapped, device.stats.page_reads,
                device.stats.page_writes, device.stats.block_erases,
                ftl.mapped_count) == (
            13685, 0.6102499999999845, 429, 772, 1787, 1775, 429, 48)

    def test_table1_shape(self, runs):
        """What the pins mean: the split design pays for its second
        layer in write amplification, GET latency and usable space."""
        _, _, vftl = runs["vftl"]
        _, _, mftl = runs["mftl"]
        assert vftl.write_amplification > mftl.write_amplification
        assert vftl.write_amplification == pytest.approx(1.104, abs=1e-3)
        assert mftl.write_amplification == pytest.approx(1.009, abs=1e-3)
        assert vftl.stats.mean_get_latency > mftl.stats.mean_get_latency
        assert vftl.stats.mean_get_latency == pytest.approx(83.7e-6,
                                                            abs=0.1e-6)
        assert mftl.stats.mean_get_latency == pytest.approx(68.8e-6,
                                                            abs=0.1e-6)
        assert vftl.usable_lbas < vftl.ftl.usable_lbas

    def test_single_version_mode_discards_every_put(self, runs):
        _, _, sftl = runs["sftl"]
        assert sftl.stats.records_discarded == sftl.stats.puts
