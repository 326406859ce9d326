"""Tier-1 tests for the experiment table and the sweep runner.

The contract under test: for any ``-j`` value and any cache state, a
sweep's merged report is **byte-identical** to the serial run — workers
race only for completion order, which the canonical-order merge
discards. The cheap hidden ``selftest`` sweep keeps the parallel
determinism tests fast; tiny grids of the eleven paper experiments pin
the table-driven renderings to digests recorded from the hand-written
serial drivers the table replaced.
"""

import hashlib
import json

import pytest

from repro.sweep import (
    TABLE,
    CellCache,
    SweepWorkerError,
    code_fingerprint,
    default_jobs,
    run_cell,
    run_sweep,
    sweep_cells,
    sweep_experiment,
    sweep_names,
)

# ---------------------------------------------------------------------------
# Cell enumeration
# ---------------------------------------------------------------------------


ALL_SWEEPS = [row.name for row in TABLE]


class TestCellEnumeration:
    def test_canonical_order_is_the_axis_order(self):
        cells = sweep_cells("figure8", scale="quick")
        # Outermost axis first: backend, then local validation, then
        # client count.
        assert [cell.label for cell in cells[:3]] == [
            "dram/local_validation=True/num_clients=8",
            "dram/local_validation=True/num_clients=24",
            "dram/local_validation=False/num_clients=8",
        ]
        assert all(cell.sweep == "figure8" for cell in cells)

    @pytest.mark.parametrize("name", ALL_SWEEPS)
    def test_every_row_enumerates_consistently(self, name):
        quick = sweep_cells(name, scale="quick")
        full = sweep_cells(name, scale="full")
        for cells in (quick, full):
            assert [cell.index for cell in cells] == list(range(len(cells)))
            assert len({cell.label for cell in cells}) == len(cells)
        assert len(full) >= len(quick) > 0
        # Both scales accept the same override keys...
        assert ({key for key, _ in quick[0].params}
                == {key for key, _ in full[0].params})
        # ...and a typo must not silently shrink a sweep.
        for scale in ("quick", "full"):
            with pytest.raises(ValueError, match="unknown sweep override"):
                sweep_cells(name, scale=scale, no_such_parameter=1)

    def test_override_replaces_an_axis(self):
        cells = sweep_cells("figure8", client_counts=(8,))
        assert len(cells) == 4
        assert {cell.params_dict()["num_clients"] for cell in cells} == {8}

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            sweep_cells("figure99")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            sweep_cells("figure8", scale="medium")

    def test_sweep_names_hides_selftest(self):
        names = sweep_names()
        assert "selftest" not in names
        assert "figure8" in names
        assert "selftest" in sweep_names(include_hidden=True)

    def test_cells_are_picklable_and_hashable(self):
        import pickle

        cells = sweep_cells("selftest")
        assert len({hash(cell) for cell in cells}) == len(cells)
        clone = pickle.loads(pickle.dumps(cells[0]))
        assert clone == cells[0]


# ---------------------------------------------------------------------------
# Parallel determinism: byte-identical reports across -j values
# ---------------------------------------------------------------------------


class TestParallelDeterminism:
    def test_report_identical_across_j1_j2_j4(self):
        reports = {}
        for jobs in (1, 2, 4):
            result = run_sweep("selftest", jobs=jobs)
            assert result.jobs == jobs
            reports[jobs] = result.report_json()
        assert reports[1] == reports[2]
        assert reports[1] == reports[4]

    def test_render_identical_serial_vs_parallel(self):
        serial = run_sweep("selftest", jobs=1).render()
        parallel = run_sweep("selftest", jobs=2).render()
        assert serial == parallel

    def test_results_arrive_in_canonical_order(self):
        result = run_sweep("selftest", jobs=2)
        assert [r.index for r in result.results] == [0, 1, 2, 3]

    def test_default_jobs_is_at_least_one(self):
        assert default_jobs() >= 1


#: One-or-two-point grids with tiny durations, and the SHA-256 of each
#: ``ExperimentResult.render()`` recorded from the serial ``run_*``
#: drivers at the commit before the experiment table replaced them.
SERIAL_DRIVER_DIGESTS = {
    "table1": (
        dict(get_percents=(100, 50), num_keys=400, duration=0.01,
             warmup=0.004, num_workers=16),
        "e6111e37cc744281d3693d148c384dd003c14fb4866286ab4cdaf54bd2dc2fd5"),
    "figure1": (
        dict(write_latencies=(0.2e-6,), skews=(0.0, 1e-4), rounds=10),
        "0aa23a02a3cac120f3d0bcf48643d2d50efedc227bde9cd568941a048ad6cecd"),
    "figure6": (
        dict(client_counts=(2,), alphas=(0.5, 0.95), num_keys=100,
             duration=0.03, warmup=0.01),
        "ed84b46f40b6496e4aac117f9b446cd754ae66c434da5b45706188e2cdbc4784"),
    "figure7": (
        dict(alphas=(0.8,), clock_presets=("ptp-sw", "ntp"),
             backends=("dram",), num_clients=3, num_keys=200,
             duration=0.03, warmup=0.01),
        "92110dca0794d4516b38bb92ec96cb907384f7ef66fab4689ec58120bfcc2368"),
    "figure8": (
        dict(client_counts=(4,), backends=("mftl",),
             local_validation=(True, False), num_keys=300,
             duration=0.03, warmup=0.01),
        "2d46bfe4db7bf6fcc7be9d82cb4ccc1dce8d47b705de2a4d3ce7441cbd059f9d"),
    "figure9": (
        dict(alphas=(0.8,), num_clients=4, num_keys=300, duration=0.03,
             warmup=0.01),
        "2d73ba86187e6f3d6a7a96d5f1386c7f5e2db5bb8463a2ae87e3aaa005bcb5c6"),
    "ablation-packing": (
        dict(delays=(0.0, 1e-3), num_keys=400, duration=0.01,
             warmup=0.004, num_workers=16),
        "d79a97906a459440771e9a429c7f02efb99eb7828eac758f30eb0edbdb3d6eb8"),
    "ablation-replication": (
        dict(replica_counts=(1, 3), num_clients=2, num_keys=200,
             duration=0.03, warmup=0.01),
        "966c4dc0ba1e230a32b5f72fe0cd2b45a24d0102e043cbfdc397a174e0452c8e"),
    "ablation-watermark": (
        dict(intervals=(0.01, 0.05), num_clients=2, num_keys=200,
             duration=0.04, warmup=0.01),
        "5b6e37ef9cf8a95f0a0c73566dc298aef98ae20f875f05e690cea41154ac15d4"),
    "ablation-gc-window": (
        dict(windows=(0.002, 0.01), num_keys=400, duration=0.01,
             warmup=0.004, num_workers=16),
        "8e00fa4fb16605ee0b1c77a2c0e0138e90c90bcf8a4d0f9e95deb402a69f1f67"),
    "ablation-caching": (
        dict(alphas=(0.8,), num_clients=2, num_keys=200,
             txns_per_client=15),
        "eacc32eb863c4c2f5f3a6b7795ff3b268f1ea87b763b39e1704da12feadcfcba"),
}


class TestTableMatchesSerialDrivers:
    @pytest.mark.parametrize("name", sorted(SERIAL_DRIVER_DIGESTS))
    def test_rendering_equals_the_recorded_serial_driver(self, name):
        grid, digest = SERIAL_DRIVER_DIGESTS[name]
        text = sweep_experiment(name, scale="full", **grid).render()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------


class TestCellCache:
    def test_cold_then_warm_accounting(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        cold = run_sweep("selftest", cache=cache)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(cold.results)
        warm = run_sweep("selftest", cache=cache)
        assert warm.cache_hits == len(warm.results)
        assert warm.cache_misses == 0
        assert warm.hit_rate == 1.0

    def test_cached_report_is_byte_identical(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        cold = run_sweep("selftest", cache=cache)
        warm = run_sweep("selftest", cache=cache)
        assert cold.report_json() == warm.report_json()

    def test_config_change_misses(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        run_sweep("selftest", cache=cache)
        changed = run_sweep("selftest", cache=cache,
                            overrides={"seed": 2})
        assert changed.cache_hits == 0

    def test_code_fingerprint_change_invalidates(self, tmp_path):
        root = str(tmp_path / "cache")
        run_sweep("selftest", cache=CellCache(root))
        stale = CellCache(root, code_fp="f" * 64)
        rerun = run_sweep("selftest", cache=stale)
        assert rerun.cache_hits == 0
        assert rerun.cache_misses == len(rerun.results)

    def test_refresh_recomputes_and_overwrites(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        run_sweep("selftest", cache=cache)
        refreshed = run_sweep("selftest", cache=cache, refresh=True)
        assert refreshed.cache_hits == 0
        # The overwritten entries still serve the next run.
        warm = run_sweep("selftest", cache=cache)
        assert warm.cache_hits == len(warm.results)

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        cell = sweep_cells("selftest")[0]
        cache.put(cell, run_cell(cell))
        path = cache._path_for(cache.key_for(cell))
        path.write_text("{ torn json")
        assert cache.get(cell) is None
        assert cache.misses == 1

    def test_tampered_payload_fails_fingerprint_check(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        cell = sweep_cells("selftest")[0]
        cache.put(cell, run_cell(cell))
        path = cache._path_for(cache.key_for(cell))
        entry = json.loads(path.read_text())
        entry["payload"]["rows"][0][1] = 999
        path.write_text(json.dumps(entry))
        assert cache.get(cell) is None

    def test_code_fingerprint_is_stable_hex(self):
        first = code_fingerprint()
        assert first == code_fingerprint()
        assert len(first) == 64
        int(first, 16)


# ---------------------------------------------------------------------------
# Failure surfacing
# ---------------------------------------------------------------------------


class TestWorkerFailures:
    def test_serial_failure_names_the_cell(self):
        with pytest.raises(SweepWorkerError, match=r"selftest#2"):
            run_sweep("selftest", jobs=1,
                      overrides={"fail_at": 2})

    def test_parallel_failure_names_the_cell(self):
        with pytest.raises(SweepWorkerError, match=r"selftest#2"):
            run_sweep("selftest", jobs=2,
                      overrides={"fail_at": 2})

    def test_failure_message_carries_original_error(self):
        with pytest.raises(SweepWorkerError,
                           match="ValueError.*fail_at"):
            run_sweep("selftest", overrides={"fail_at": 0})
