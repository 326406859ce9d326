"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestList:
    def test_list_prints_inventory(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure9" in out
        assert "ycsb F" in out

    def test_listings_are_generated_from_the_table(self, capsys):
        assert main(["list"]) == 0
        listed = capsys.readouterr().out
        assert main(["sweep", "--list"]) == 0
        sweeps = capsys.readouterr().out
        # Every experiment row is reachable from both commands (table1
        # and figure9 used to be serial-only); the hidden row from none.
        for row in EXPERIMENTS:
            assert f"  {row.name}\n" in listed
            assert f"  {row.name}\n" in sweeps
        assert "selftest" not in listed + sweeps


class TestExperimentCommand:
    def test_quick_figure1(self, capsys, tmp_path):
        out_file = tmp_path / "fig1.txt"
        assert main(["experiment", "figure1", "--scale", "quick",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Impact of Clock Skew" in out
        assert out_file.exists()
        assert "reject rate" in out_file.read_text()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure42"])


class TestSweepCommand:
    def test_list_prints_sweeps(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figure8" in out
        assert "audit" in out
        assert "selftest" not in out  # hidden test-only sweep

    def test_no_name_is_a_usage_error(self):
        assert main(["sweep"]) == 2

    def test_selftest_sweep_cold_then_warm_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold_out = tmp_path / "cold.json"
        warm_out = tmp_path / "warm.json"
        assert main(["sweep", "selftest", "-j", "1",
                     "--cache-dir", cache_dir,
                     "--out", str(cold_out)]) == 0
        assert "Sweep selftest" in capsys.readouterr().out
        assert main(["sweep", "selftest", "-j", "1",
                     "--cache-dir", cache_dir,
                     "--out", str(warm_out),
                     "--min-hit-rate", "0.9"]) == 0
        assert cold_out.read_bytes() == warm_out.read_bytes()

    def test_min_hit_rate_fails_without_cache(self, tmp_path):
        assert main(["sweep", "selftest", "-j", "1", "--no-cache",
                     "--min-hit-rate", "0.9"]) == 1

    def test_unknown_sweep_is_a_usage_error(self):
        assert main(["sweep", "figure99", "--no-cache"]) == 2


class TestWorkloadCommands:
    def test_retwis_run(self, capsys):
        assert main(["retwis", "--clients", "2", "--keys", "100",
                     "--duration", "0.05", "--backend", "dram",
                     "--replicas", "1"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "latency p99" in out

    def test_retwis_without_local_validation(self, capsys):
        assert main(["retwis", "--clients", "2", "--keys", "100",
                     "--duration", "0.05", "--backend", "dram",
                     "--replicas", "1", "--no-local-validation"]) == 0

    def test_ycsb_run(self, capsys):
        assert main(["ycsb", "--workload", "C", "--clients", "2",
                     "--keys", "100", "--duration", "0.05",
                     "--backend", "dram", "--replicas", "1"]) == 0
        out = capsys.readouterr().out
        assert "YCSB-C" in out
        assert "ops/s" in out

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["retwis", "--backend", "tape"])


class TestToolCommands:
    """``analyze`` and ``audit`` are subcommands of the one parser."""

    def test_catalogue_listings(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        assert "ATM002" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--help"])
        assert excinfo.value.code == 0
        assert "retwis-smoke" in capsys.readouterr().out

    def test_analyze_matches_the_module_alias(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        argv = ["tests/fixtures/analysis/dur", "--format", "json"]
        assert main(["analyze", *argv]) == 1
        out = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", *argv],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
        assert proc.returncode == 1
        assert proc.stdout == out

    def test_unknown_flag_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--no-such-flag"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro analyze" in err
        assert "--no-such-flag" in err
