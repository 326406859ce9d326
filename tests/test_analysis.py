"""Tier-1 gate + unit tests for the simlint static analyzer.

The headline test runs the analyzer over the real ``src/repro`` tree and
asserts zero non-baselined findings — a ``time.sleep`` in a sim process
or a poke at ``Network._crashed`` makes this test (and ``python -m
repro.analysis``) fail.
The rest exercises every rule on positive/negative/suppressed fixtures,
the baseline round-trip, and the JSON output schema.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline, analyze_paths
from repro.cli import main
from repro.analysis.engine import SYNTAX_RULE_ID, all_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
BASELINE_FILE = REPO_ROOT / "simlint-baseline.json"


def run_on(tmp_path, source, name="snippet.py", **kwargs):
    """Analyze one fixture file; returns the findings list."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    findings, files = analyze_paths([str(path)], **kwargs)
    assert files == 1
    return findings


def rule_ids(findings):
    return [f.rule_id for f in findings]


# -- the tier-1 gate -------------------------------------------------------


class TestRepoIsClean:
    def test_src_repro_has_zero_findings(self):
        findings, files = analyze_paths([str(SRC)])
        baseline = Baseline.load(BASELINE_FILE)
        new, _ = baseline.split(findings)
        assert files > 80
        assert new == [], "\n".join(f.render() for f in new)

    def test_checked_in_baseline_is_near_empty(self):
        # Repo policy: fix findings, don't bank them. Allow a little
        # slack for future grandfathering, but not silent rot.
        assert len(Baseline.load(BASELINE_FILE)) <= 5

    def test_cli_exits_zero_on_repo(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC)],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr


# -- per-rule fixtures -----------------------------------------------------


class TestSim001Blocking:
    def test_positive_sleep_in_generator(self, tmp_path):
        findings = run_on(tmp_path, """\
            import time
            def proc(sim):
                time.sleep(0.1)
                yield sim.timeout(0.1)
            """)
        assert rule_ids(findings) == ["SIM001"]

    def test_positive_open_in_generator(self, tmp_path):
        findings = run_on(tmp_path, """\
            def proc(sim):
                handle = open("trace.log")
                yield sim.timeout(1)
                return handle
            """)
        assert rule_ids(findings) == ["SIM001"]

    def test_negative_open_outside_generator(self, tmp_path):
        findings = run_on(tmp_path, """\
            def write_report(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """)
        assert findings == []

    def test_negative_sim_timeout(self, tmp_path):
        findings = run_on(tmp_path, """\
            def proc(sim):
                yield sim.timeout(0.1)
            """)
        assert findings == []


class TestRpc001Timeouts:
    def test_positive_bare_call(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node, request):
                reply = yield node.call("dst", "ping", request)
                return reply
            """)
        assert rule_ids(findings) == ["RPC001"]

    def test_positive_self_node(self, tmp_path):
        findings = run_on(tmp_path, """\
            class Client:
                def send(self, request):
                    return self.node.call("dst", "ping", request,
                                          retries=2)
            """)
        assert rule_ids(findings) == ["RPC001"]

    def test_negative_keyword_timeout(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node, request):
                yield node.call("dst", "ping", request, timeout=5e-3)
            """)
        assert findings == []

    def test_negative_positional_timeout(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node, request):
                yield node.call("dst", "ping", request, 5e-3)
            """)
        assert findings == []

    def test_positive_replicate_without_timeout(self, tmp_path):
        findings = run_on(tmp_path, """\
            from repro.semel.replication import replicate_to_backups
            def push(node, backups, payload):
                yield from replicate_to_backups(
                    node, backups, "put", payload, 2)
            """)
        assert rule_ids(findings) == ["RPC001"]

    def test_negative_unrelated_call_method(self, tmp_path):
        findings = run_on(tmp_path, """\
            def invoke(handler):
                return handler.call("anything")
            """)
        assert findings == []


class TestApi001DunderAll:
    def test_positive_ghost_name(self, tmp_path):
        findings = run_on(tmp_path, """\
            __all__ = ["missing"]
            """)
        assert rule_ids(findings) == ["API001"]

    def test_positive_unexported_public_def(self, tmp_path):
        findings = run_on(tmp_path, """\
            __all__ = []
            def helper():
                return 1
            """)
        assert rule_ids(findings) == ["API001"]

    def test_negative_consistent(self, tmp_path):
        findings = run_on(tmp_path, """\
            from typing import Dict
            __all__ = ["Thing", "CONSTANT", "TABLE"]
            CONSTANT = 1
            TABLE: Dict[str, int] = {}
            class Thing:
                pass
            def _private():
                pass
            """)
        assert findings == []

    def test_negative_module_without_all(self, tmp_path):
        findings = run_on(tmp_path, """\
            def helper():
                return 1
            """)
        assert findings == []


class TestFlt001CrashStatePoke:
    def test_positive_direct_mutation(self, tmp_path):
        findings = run_on(tmp_path, """\
            def sabotage(network, name):
                network._crashed.add(name)
            """)
        assert rule_ids(findings) == ["FLT001"]

    def test_positive_direct_read(self, tmp_path):
        findings = run_on(tmp_path, """\
            def peek(cluster, name):
                return name in cluster.network._crashed
            """)
        assert rule_ids(findings) == ["FLT001"]

    def test_negative_fault_api(self, tmp_path):
        findings = run_on(tmp_path, """\
            def fail(network, name):
                network.crash(name)
                return network.is_crashed(name)
            """)
        assert findings == []

    def test_rule_skips_the_network_module(self, tmp_path):
        findings = run_on(tmp_path, """\
            class Network:
                def crash(self, name):
                    self._crashed.add(name)
            """, name="net/network.py")
        assert findings == []


class TestPar001ParallelismHygiene:
    def test_positive_os_fork(self, tmp_path):
        findings = run_on(tmp_path, """\
            import os
            def spawn_worker():
                return os.fork()
            """)
        assert rule_ids(findings) == ["PAR001"]

    def test_positive_get_context_default(self, tmp_path):
        findings = run_on(tmp_path, """\
            import multiprocessing
            def context():
                return multiprocessing.get_context()
            """)
        assert rule_ids(findings) == ["PAR001"]

    def test_positive_fork_start_method(self, tmp_path):
        findings = run_on(tmp_path, """\
            from multiprocessing import get_context
            def context():
                return get_context("fork")
            """)
        assert rule_ids(findings) == ["PAR001"]

    def test_negative_spawn_context(self, tmp_path):
        findings = run_on(tmp_path, """\
            from multiprocessing import get_context
            def context():
                return get_context("spawn")
            """)
        assert findings == []

    def test_positive_executor_without_mp_context(self, tmp_path):
        findings = run_on(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor
            def pool(jobs):
                return ProcessPoolExecutor(max_workers=jobs)
            """)
        assert rule_ids(findings) == ["PAR001"]

    def test_negative_executor_with_mp_context(self, tmp_path):
        findings = run_on(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context
            def pool(jobs):
                return ProcessPoolExecutor(
                    max_workers=jobs, mp_context=get_context("spawn"))
            """)
        assert findings == []

    def test_positive_module_mutable_in_sweep(self, tmp_path):
        findings = run_on(tmp_path, """\
            _CACHE = {}
            def lookup(key):
                return _CACHE.get(key)
            """, name="sweep/registry.py")
        assert rule_ids(findings) == ["PAR001"]

    def test_negative_module_mutable_outside_sweep(self, tmp_path):
        findings = run_on(tmp_path, """\
            _CACHE = {}
            def lookup(key):
                return _CACHE.get(key)
            """, name="harness/registry.py")
        assert findings == []

    def test_negative_dunder_assignment_in_sweep(self, tmp_path):
        findings = run_on(tmp_path, """\
            __all__ = ["lookup"]
            def lookup(key):
                return key
            """, name="sweep/api.py")
        assert findings == []

    def test_negative_immutable_module_constant_in_sweep(self, tmp_path):
        findings = run_on(tmp_path, """\
            SCALES = ("quick", "full")
            LIMIT = 16
            def scales():
                return SCALES
            """, name="sweep/config.py")
        assert findings == []

    def test_sweep_package_itself_is_clean(self):
        findings, files = analyze_paths([str(SRC / "sweep")])
        assert files >= 5
        assert [f for f in findings if f.rule_id == "PAR001"] == []


class TestEngine:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = run_on(tmp_path, "def broken(:\n")
        assert rule_ids(findings) == [SYNTAX_RULE_ID]

    def test_unknown_rule_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            analyze_paths([str(tmp_path)], select=["NOPE99"])

    def test_select_and_ignore(self, tmp_path):
        source = """\
            CRASHED = network._crashed
            __all__ = ["ghost"]
            """
        assert rule_ids(run_on(tmp_path, source,
                               select=["FLT001"])) == ["FLT001"]
        assert rule_ids(run_on(tmp_path, source,
                               ignore=["FLT001"])) == ["API001"]

    def test_disable_all_rules_on_line(self, tmp_path):
        findings = run_on(tmp_path, """\
            CRASHED = network._crashed  # simlint: disable
            """)
        assert findings == []

    def test_findings_sorted_and_deterministic(self, tmp_path):
        source = """\
            import time
            def f(network):
                time.sleep(0)
                yield network._crashed
            """
        first = run_on(tmp_path, source)
        second = run_on(tmp_path, source)
        assert first == second
        assert first == sorted(first, key=lambda f: f.sort_key)

    def test_every_rule_has_id_severity_description(self):
        rules = all_rules()
        assert len(rules) >= 8
        for rule_id, r in rules.items():
            assert rule_id == r.rule_id
            assert r.severity in ("error", "warning")
            assert r.description


class TestBaseline:
    def _findings(self, tmp_path):
        return run_on(tmp_path, """\
            def f(network):
                return network._crashed, network._crashed.copy()
            """)

    def test_round_trip(self, tmp_path):
        findings = self._findings(tmp_path)
        assert findings
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(baseline_path)
        reloaded = Baseline.load(baseline_path)
        new, matched = reloaded.split(findings)
        assert new == []
        assert len(matched) == len(findings)

    def test_new_finding_not_masked(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline = Baseline.from_findings(findings[:1])
        new, matched = baseline.split(findings)
        assert len(matched) == 1
        assert len(new) == len(findings) - 1

    def test_duplicate_findings_consume_entries(self, tmp_path):
        findings = self._findings(tmp_path)
        doubled = findings + findings
        baseline = Baseline.from_findings(findings)
        new, matched = baseline.split(doubled)
        assert len(matched) == len(findings)
        assert len(new) == len(findings)

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"entries\": [{\"oops\": 1}], \"version\": 1}")
        with pytest.raises(ValueError):
            Baseline.load(bad)


class TestCli:
    def write_bad_file(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("CRASHED = network._crashed\n")
        return path

    def test_exit_codes(self, tmp_path, capsys):
        bad = self.write_bad_file(tmp_path)
        assert main(["analyze", str(bad)]) == 1
        capsys.readouterr()
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["analyze", str(clean)]) == 0

    def test_json_schema(self, tmp_path, capsys):
        bad = self.write_bad_file(tmp_path)
        code = main(["analyze", str(bad), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["baselined"] == 0
        assert payload["counts_by_rule"] == {"FLT001": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "rule",
                                "severity", "message", "fingerprint"}
        assert finding["rule"] == "FLT001"
        assert finding["line"] == 1

    def test_baseline_flag_suppresses(self, tmp_path, capsys):
        bad = self.write_bad_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["analyze", str(bad), "--write-baseline",
                     str(baseline)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(bad), "--baseline", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "1 baselined" in err

    def test_nonexistent_path_is_a_usage_error(self, capsys):
        # A typo'd path must not green-light CI with "0 files checked".
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "does/not/exist"])
        assert excinfo.value.code == 2
        assert "do not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json", "sarif", "github"])
    def test_from_json_renders_like_the_analysis(self, tmp_path, capsys,
                                                fmt):
        bad = self.write_bad_file(tmp_path)
        report = tmp_path / "report.json"
        assert main(["analyze", str(bad), "--format", "json",
                     "--output", str(report)]) == 1
        assert json.loads(report.read_text())["findings"]
        capsys.readouterr()
        main(["analyze", str(bad), "--format", fmt])
        direct = capsys.readouterr()
        assert main(["analyze", "--from-json", str(report), "--format", fmt]) == 0
        rendered = capsys.readouterr()
        assert (rendered.out, rendered.err) == (direct.out, direct.err)

    def test_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SIM001", "RPC001",
                        "FLT001", "API001", "SUP001",
                        "ATM002", "PRO004", "DET101"):
            assert rule_id in out
