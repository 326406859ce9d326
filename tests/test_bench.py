"""Tests for the ``repro bench`` harness (kernel suite, reports, gates)."""

import json

import pytest

from repro.bench import (
    BenchResult,
    check_against_baseline,
    load_report,
    run_suite,
    write_report,
)
from repro.bench.kernel import (
    bench_event_alloc,
    bench_event_dispatch,
    bench_store_handoff,
    bench_timeout_chain,
)
from repro.bench.runner import REPORT_SCHEMA, host_clock, host_metadata


TINY = 0.005  # scale factor keeping each microbench to ~1k units


class TestKernelBenchmarks:
    def test_event_dispatch_counts_every_event(self):
        result = bench_event_dispatch(TINY)
        assert result.name == "kernel/events"
        assert result.metric == "events_per_s"
        assert result.n == 1_000
        assert result.value > 0
        assert result.seconds >= 0

    def test_event_alloc_counts_every_event(self):
        result = bench_event_alloc(TINY)
        assert result.name == "kernel/alloc"
        assert result.n == 1_001  # n relays + the seed event
        assert result.value > 0

    def test_timeout_chain_reports_simulated_time(self):
        result = bench_timeout_chain(TINY)
        assert result.n == 50 * 20
        assert result.extra["processes"] == 50
        assert result.extra["sim_seconds"] > 0

    def test_store_handoff_moves_every_item(self):
        result = bench_store_handoff(TINY)
        assert result.n == 8 * 75
        assert result.value > 0


class TestRunner:
    def test_host_clock_advances(self):
        first = host_clock()
        second = host_clock()
        assert second >= first

    def test_run_suite_quick_filters_and_repeats(self):
        lines = []
        results = run_suite(quick=True, only="kernel/events",
                            report=lines.append)
        assert [r.name for r in results] == ["kernel/events"]
        assert results[0].extra["best_of"] == 3
        assert len(lines) == 1 and "kernel/events" in lines[0]

    def test_every_result_counts_the_cyclic_collector(self):
        lines = []
        results = run_suite(quick=True, report=lines.append)
        by_name = {result.name: result for result in results}
        for result, line in zip(results, lines):
            assert result.extra["gc_collections"] >= 0
            assert result.extra["gc_collected"] >= 0
            assert "gc_collected=" in line and "gc_collections=" in line
        # Processes, timeouts and store handoffs die by refcounting.
        assert by_name["kernel/timeouts"].extra["gc_collected"] == 0
        assert by_name["kernel/store"].extra["gc_collected"] == 0

    def test_render_mentions_name_and_metric(self):
        result = BenchResult(name="kernel/x", metric="ops_per_s",
                             value=1234.5, n=10, seconds=0.01,
                             extra={"k": 1})
        rendered = result.render()
        assert "kernel/x" in rendered
        assert "ops_per_s" in rendered
        assert "k=1" in rendered


class TestReports:
    def _results(self):
        return [
            BenchResult(name="kernel/events", metric="events_per_s",
                        value=1000.0, n=100, seconds=0.1),
            BenchResult(name="kernel/rpc", metric="roundtrips_per_s",
                        value=50.0, n=5, seconds=0.1),
        ]

    def test_write_then_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_kernel.json")
        write_report(self._results(), path, quick=True)
        document = load_report(path)
        assert document["schema"] == REPORT_SCHEMA
        assert document["quick"] is True
        assert [e["name"] for e in document["results"]] == [
            "kernel/events", "kernel/rpc"]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"schema": 999, "results": []}, handle)
        with pytest.raises(ValueError, match="schema"):
            load_report(path)

    def test_check_passes_within_tolerance(self, tmp_path):
        path = str(tmp_path / "base.json")
        write_report(self._results(), path)
        current = self._results()
        current[0].value = 800.0  # 20% down, tolerance 30%
        assert check_against_baseline(current, path, tolerance=0.30) == []

    def test_check_flags_regression(self, tmp_path):
        path = str(tmp_path / "base.json")
        write_report(self._results(), path)
        current = self._results()
        current[0].value = 500.0  # 50% down
        problems = check_against_baseline(current, path, tolerance=0.30)
        assert len(problems) == 1
        assert "kernel/events" in problems[0]
        assert "50%" in problems[0]

    def test_check_flags_asymmetric_benchmark_sets(self, tmp_path):
        path = str(tmp_path / "base.json")
        write_report(self._results(), path)
        current = self._results()[:1]
        current.append(BenchResult(name="kernel/new", metric="x_per_s",
                                   value=1.0, n=1, seconds=1.0))
        problems = check_against_baseline(current, path)
        assert any("kernel/new" in p and "not in baseline" in p
                   for p in problems)
        assert any("kernel/rpc" in p and "not produced" in p
                   for p in problems)

    def test_check_rejects_bad_tolerance(self, tmp_path):
        path = str(tmp_path / "base.json")
        write_report(self._results(), path)
        with pytest.raises(ValueError, match="tolerance"):
            check_against_baseline(self._results(), path, tolerance=1.5)

    def test_report_records_host_metadata(self, tmp_path):
        path = str(tmp_path / "base.json")
        write_report(self._results(), path)
        host = load_report(path)["host"]
        assert host == host_metadata()
        assert host["python"] and host["platform"]

    def test_schema1_report_still_loads(self, tmp_path):
        # Pre-host-metadata baselines keep working.
        path = str(tmp_path / "old.json")
        with open(path, "w") as handle:
            json.dump({"schema": 1, "quick": True, "results": []}, handle)
        assert load_report(path)["schema"] == 1
