"""Tier-1 gate + unit tests for the simlint static analyzer.

The headline test runs the analyzer over the real ``src/repro`` tree and
asserts zero findings — there is no baseline and no suppression comment,
so a ``time.sleep`` in a sim process makes this test (and ``python -m
repro analyze``) fail. The rest exercises the module rules on
positive/negative fixtures, the CLI and its JSON output schema, and the
gates that replaced the retired rules RPC001, FLT001 and API001.
"""

import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro
from repro.analysis import analyze_paths
from repro.cli import main
from repro.analysis.engine import SYNTAX_RULE_ID, all_rules
from repro.net import FixedLatency, Network, RpcNode
from repro.semel.replication import replicate_to_backups
from repro.sim import SeededRng, Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


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
        assert files > 80
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_exits_zero_on_repo(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(SRC)],
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

    TWO_RULES = """\
        import os
        import time
        def proc(sim):
            time.sleep(0)
            yield sim.timeout(0)
        def child():
            return os.fork()
        """

    def test_select_and_ignore(self, tmp_path):
        assert rule_ids(run_on(tmp_path, self.TWO_RULES,
                               select=["SIM001"])) == ["SIM001"]
        assert rule_ids(run_on(tmp_path, self.TWO_RULES,
                               ignore=["SIM001"])) == ["PAR001"]

    def test_findings_sorted_and_deterministic(self, tmp_path):
        source = self.TWO_RULES
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


class TestCli:
    def write_bad_file(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("import os\nPID = os.fork()\n")
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
        assert set(payload) == {"version", "files_checked", "findings",
                                "counts_by_rule"}
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["counts_by_rule"] == {"PAR001": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "rule",
                                "severity", "message", "fingerprint"}
        assert finding["rule"] == "PAR001"
        assert finding["line"] == 2

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
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == ["ATM002", "DET101", "DUR001", "DUR003",
                          "DUR004", "DUR005", "PAR001", "SIM001"]


# -- the gates that replaced retired rules ---------------------------------


def dunder_all_problems(module):
    """What API001 checked, at run time: every ``__all__`` name resolves,
    and every public class or function the module itself defines is
    listed. Modules without ``__all__`` are not checked."""
    declared = getattr(module, "__all__", None)
    if declared is None:
        return []
    problems = [f"{module.__name__}: __all__ lists {name!r}, which does "
                f"not resolve" for name in declared
                if not hasattr(module, name)]
    for name, value in vars(module).items():
        if (not name.startswith("_") and name not in declared
                and (inspect.isclass(value) or inspect.isfunction(value))
                and value.__module__ == module.__name__):
            problems.append(f"{module.__name__}: public {name!r} is "
                            f"missing from __all__")
    return problems


def synthetic_module(source, name="synthetic"):
    module = types.ModuleType(name)
    exec(textwrap.dedent(source), module.__dict__)
    return module


def rpc_pair():
    sim = Simulator()
    network = Network(sim, SeededRng(7), latency=FixedLatency(50e-6))
    return network, RpcNode(sim, network, "a"), RpcNode(sim, network, "b")


class TestRetiredRuleGates:
    """Each retired rule's census mutations (docs/ANALYSIS.md "Retired
    rules") now fail in the language or in tier-1."""

    def test_rpc_call_without_timeout_raises(self):
        # RPC001-a/b: a send-site that drops ``timeout=``.
        _, client, _ = rpc_pair()
        with pytest.raises(TypeError, match="timeout"):
            client.call("b", "echo", 1)

    def test_self_node_call_without_timeout_raises(self):
        # The same drop through a component that holds its node.
        class Client:
            def __init__(self, node):
                self.node = node

            def send(self, request):
                return self.node.call("b", "echo", request, retries=2)

        _, node, _ = rpc_pair()
        with pytest.raises(TypeError, match="timeout"):
            Client(node).send(1)

    def test_rpc_call_with_positional_timeout_raises(self):
        # A positional budget no longer binds to ``timeout``.
        _, client, _ = rpc_pair()
        with pytest.raises(TypeError):
            client.call("b", "echo", 1, 5e-3)

    def test_replicate_without_timeout_raises(self):
        _, client, _ = rpc_pair()
        with pytest.raises(TypeError, match="timeout"):
            replicate_to_backups(client, ["b"], "echo", 1, 1)

    def test_crashed_set_mutation_raises(self):
        # FLT001-a: poking the crashed set directly.
        network, _, _ = rpc_pair()
        with pytest.raises(AttributeError):
            network._crashed.add("a")
        assert not network.is_crashed("a")

    def test_crashed_set_read_raises(self):
        # FLT001-b: reading the crashed set directly.
        network, _, _ = rpc_pair()
        with pytest.raises(AttributeError):
            "a" in network._crashed

    def test_crash_is_visible_through_fault_api(self):
        network, _, _ = rpc_pair()
        network.crash("a")
        assert network.is_crashed("a")
        assert not network.can_communicate("a", "b")

    def test_all_check_flags_a_ghost_name(self):
        # API001-a: ``histogram.py``'s ``__all__`` names a ghost.
        module = synthetic_module("""\
            __all__ = ["Histogram", "merge_histograms"]
            class Histogram:
                pass
            """)
        assert dunder_all_problems(module) == [
            "synthetic: __all__ lists 'merge_histograms', which does not "
            "resolve"]

    def test_all_check_flags_a_dropped_public_name(self):
        # API001-b: ``sweep/cache.py`` drops ``code_fingerprint``.
        module = synthetic_module("""\
            from pathlib import Path
            __all__ = ["SweepCache"]
            class SweepCache:
                pass
            def code_fingerprint():
                return Path
            def _private():
                pass
            """)
        assert dunder_all_problems(module) == [
            "synthetic: public 'code_fingerprint' is missing from __all__"]

    def test_every_repro_all_is_consistent(self):
        names = [info.name for info in pkgutil.walk_packages(
            repro.__path__, "repro.")
            if not info.name.endswith("__main__")]
        assert len(names) > 80
        problems = []
        for name in names:
            problems += dunder_all_problems(importlib.import_module(name))
        assert problems == []
