"""Tier-1 gate + unit tests for the simlint static analyzer.

The headline test runs the analyzer over the real ``src/repro`` tree and
asserts zero non-baselined findings — injecting a ``time.time()`` into
any sim module makes this test (and ``python -m repro.analysis``) fail.
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
from repro.analysis.cli import main as cli_main
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

    def test_injected_wall_clock_read_is_caught(self, tmp_path):
        """The acceptance scenario: a time.time() slipped into sim/core.py."""
        victim = tmp_path / "sim" / "core.py"
        victim.parent.mkdir(parents=True)
        original = (SRC / "sim" / "core.py").read_text()
        assert "time.time()" not in original
        tampered = original.replace(
            "import heapq",
            "import heapq\nimport time", 1).replace(
            "self._now = 0.0",
            "self._now = time.time()", 1)
        assert tampered != original
        victim.write_text(tampered)
        findings, _ = analyze_paths([str(victim)])
        assert "DET001" in rule_ids(findings)


# -- per-rule fixtures -----------------------------------------------------


class TestDet001WallClock:
    def test_positive_time_time(self, tmp_path):
        findings = run_on(tmp_path, """\
            import time
            def stamp():
                return time.time()
            """)
        assert rule_ids(findings) == ["DET001"]

    def test_positive_from_import_and_alias(self, tmp_path):
        findings = run_on(tmp_path, """\
            from time import perf_counter
            import time as t
            def stamp():
                return perf_counter() + t.monotonic()
            """)
        assert rule_ids(findings) == ["DET001", "DET001"]

    def test_positive_datetime_now(self, tmp_path):
        findings = run_on(tmp_path, """\
            from datetime import datetime
            def stamp():
                return datetime.now()
            """)
        assert rule_ids(findings) == ["DET001"]

    def test_negative_sim_now(self, tmp_path):
        findings = run_on(tmp_path, """\
            def stamp(sim):
                return sim.now
            """)
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = run_on(tmp_path, """\
            import time
            def stamp():
                return time.time()  # simlint: disable=DET001
            """)
        assert findings == []


class TestDet002DirectRandom:
    def test_positive_import_and_call(self, tmp_path):
        findings = run_on(tmp_path, """\
            import random
            def draw():
                return random.random()
            """)
        assert rule_ids(findings) == ["DET002", "DET002"]

    def test_positive_from_import(self, tmp_path):
        findings = run_on(tmp_path, """\
            from random import randint
            """)
        assert rule_ids(findings) == ["DET002"]

    def test_negative_seeded_rng(self, tmp_path):
        findings = run_on(tmp_path, """\
            def draw(rng):
                return rng.substream("jitter").random()
            """)
        assert findings == []

    def test_rng_module_itself_is_exempt(self):
        findings, _ = analyze_paths([str(SRC / "sim" / "rng.py")],
                                    select=["DET002"])
        assert findings == []

    def test_file_level_suppression(self, tmp_path):
        findings = run_on(tmp_path, """\
            # simlint: disable-file=DET002
            import random
            """)
        assert findings == []


class TestDet003UnorderedIteration:
    def test_positive_set_call(self, tmp_path):
        findings = run_on(tmp_path, """\
            def fanout(replicas):
                for r in set(replicas):
                    yield r
            """)
        assert rule_ids(findings) == ["DET003"]

    def test_positive_set_literal_and_comprehension(self, tmp_path):
        findings = run_on(tmp_path, """\
            def shards(a, b):
                xs = [s for s in {a, b}]
                ys = list(x for x in {n for n in a})
                return xs, ys
            """)
        assert rule_ids(findings) == ["DET003", "DET003"]

    def test_positive_set_method(self, tmp_path):
        findings = run_on(tmp_path, """\
            def diff(a, b):
                for key in a.difference(b):
                    print(key)
            """)
        assert rule_ids(findings) == ["DET003"]

    def test_negative_sorted_wrapper(self, tmp_path):
        findings = run_on(tmp_path, """\
            def fanout(replicas):
                for r in sorted(set(replicas)):
                    yield r
            """)
        assert findings == []

    def test_negative_dict_iteration_is_ordered(self, tmp_path):
        findings = run_on(tmp_path, """\
            def walk(table):
                for key, value in table.items():
                    yield key, value
            """)
        assert findings == []


class TestDet004EnvironmentReads:
    def test_positive_uuid_and_urandom(self, tmp_path):
        findings = run_on(tmp_path, """\
            import os, uuid
            def ident(key):
                return uuid.uuid4(), os.urandom(8), hash(key)
            """)
        assert rule_ids(findings) == ["DET004", "DET004", "DET004"]

    def test_positive_os_environ(self, tmp_path):
        findings = run_on(tmp_path, """\
            import os
            def config():
                return os.environ["SEED"], os.getenv("MODE")
            """)
        assert sorted(rule_ids(findings)) == ["DET004", "DET004"]

    def test_negative_explicit_seed(self, tmp_path):
        findings = run_on(tmp_path, """\
            def ident(rng, counter):
                return f"txn-{counter}-{rng.randint(0, 2**31)}"
            """)
        assert findings == []


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
                reply = yield node.call("dst", "m.ping", request)
                return reply
            """)
        assert rule_ids(findings) == ["RPC001"]

    def test_positive_self_node(self, tmp_path):
        findings = run_on(tmp_path, """\
            class Client:
                def send(self, request):
                    return self.node.call("dst", "m.ping", request,
                                          retries=2)
            """)
        assert rule_ids(findings) == ["RPC001"]

    def test_negative_keyword_timeout(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node, request):
                yield node.call("dst", "m.ping", request, timeout=5e-3)
            """)
        assert findings == []

    def test_negative_positional_timeout(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node, request):
                yield node.call("dst", "m.ping", request, 5e-3)
            """)
        assert findings == []

    def test_positive_replicate_without_timeout(self, tmp_path):
        findings = run_on(tmp_path, """\
            from repro.semel.replication import replicate_to_backups
            def push(node, backups, payload):
                yield from replicate_to_backups(
                    node, backups, "m.put", payload, 2)
            """)
        assert rule_ids(findings) == ["RPC001"]

    def test_negative_unrelated_call_method(self, tmp_path):
        findings = run_on(tmp_path, """\
            def invoke(handler):
                return handler.call("anything")
            """)
        assert findings == []


class TestWire001Payloads:
    def test_positive_dict_literal_in_call(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node):
                yield node.call("dst", "m.ping", {"key": "k"},
                                timeout=5e-3)
            """)
        assert rule_ids(findings) == ["WIRE001"]

    def test_positive_dict_literal_in_send_oneway(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node):
                node.send_oneway("dst", "m.tick", {"now": 1.0})
            """)
        assert rule_ids(findings) == ["WIRE001"]

    def test_positive_dict_comprehension_payload(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node, keys):
                node.send_oneway("dst", "m.bulk",
                                 {k: 1 for k in keys})
            """)
        assert rule_ids(findings) == ["WIRE001"]

    def test_positive_payload_keyword(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node):
                yield node.call("dst", "m.ping", timeout=5e-3,
                                payload={"key": "k"})
            """)
        assert rule_ids(findings) == ["WIRE001"]

    def test_positive_replicate_to_backups(self, tmp_path):
        findings = run_on(tmp_path, """\
            from repro.semel.replication import replicate_to_backups
            def push(node, backups):
                yield from replicate_to_backups(
                    node, backups, "m.put", {"key": "k"}, 2,
                    timeout=5e-3)
            """)
        assert rule_ids(findings) == ["WIRE001"]

    def test_negative_message_object_payload(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node, request):
                yield node.call("dst", "m.ping", request, timeout=5e-3)
            """)
        assert findings == []

    def test_negative_unrelated_receiver(self, tmp_path):
        findings = run_on(tmp_path, """\
            def invoke(handler):
                return handler.call("dst", "m.ping", {"key": "k"})
            """)
        assert findings == []

    def test_suppression_comment(self, tmp_path):
        findings = run_on(tmp_path, """\
            def send(node):
                node.send_oneway(
                    "dst", "m.tick",
                    {"now": 1.0})  # simlint: disable=WIRE001
            """)
        assert findings == []


class TestTxn001YieldAtomicity:
    def test_positive_yield_between_validate_and_record(self, tmp_path):
        findings = run_on(tmp_path, """\
            class Server:
                def _handle_prepare(self, record):
                    result = validate(record, self.key_states)
                    yield from self._replicate(record)
                    self.txn_table[record.txn_id] = record
                    return result
            """, name="milana/server_like.py")
        assert rule_ids(findings) == ["ATM001"]

    def test_positive_mark_prepared_after_yield(self, tmp_path):
        findings = run_on(tmp_path, """\
            class Server:
                def _handle_prepare(self, record):
                    result = validate(record, self.key_states)
                    yield self.backend.put(record)
                    self.key_states.mark_prepared(record.key,
                                                  record.txn_id, 1.0)
            """, name="milana/server_like.py")
        assert rule_ids(findings) == ["ATM001"]

    def test_negative_record_before_yield(self, tmp_path):
        findings = run_on(tmp_path, """\
            class Server:
                def _handle_prepare(self, record):
                    result = validate(record, self.key_states)
                    self.txn_table[record.txn_id] = record
                    yield from self._replicate(record)
                    return result
            """, name="milana/server_like.py")
        assert findings == []

    def test_negative_revalidation_after_yield(self, tmp_path):
        findings = run_on(tmp_path, """\
            class Server:
                def _handle_prepare(self, record):
                    result = validate(record, self.key_states)
                    yield from self._replicate(record)
                    result = validate(record, self.key_states)
                    self.txn_table[record.txn_id] = record
                    return result
            """, name="milana/server_like.py")
        assert findings == []

    def test_rule_is_scoped_to_milana(self, tmp_path):
        findings = run_on(tmp_path, """\
            class Server:
                def _handle_prepare(self, record):
                    result = validate(record, self.key_states)
                    yield from self._replicate(record)
                    self.txn_table[record.txn_id] = record
            """, name="elsewhere/server_like.py")
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
            import random
            __all__ = ["ghost"]
            """
        assert rule_ids(run_on(tmp_path, source,
                               select=["DET002"])) == ["DET002"]
        assert rule_ids(run_on(tmp_path, source,
                               ignore=["DET002"])) == ["API001"]

    def test_disable_all_rules_on_line(self, tmp_path):
        findings = run_on(tmp_path, """\
            import random  # simlint: disable
            """)
        assert findings == []

    def test_findings_sorted_and_deterministic(self, tmp_path):
        source = """\
            import random
            import time
            def f():
                return time.time(), random.random()
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
            import random
            import time
            def f():
                return time.time()
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
        path.write_text("import random\n")
        return path

    def test_exit_codes(self, tmp_path, capsys):
        bad = self.write_bad_file(tmp_path)
        assert cli_main([str(bad)]) == 1
        capsys.readouterr()
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert cli_main([str(clean)]) == 0

    def test_json_schema(self, tmp_path, capsys):
        bad = self.write_bad_file(tmp_path)
        code = cli_main([str(bad), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["baselined"] == 0
        assert payload["counts_by_rule"] == {"DET002": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "rule",
                                "severity", "message", "fingerprint"}
        assert finding["rule"] == "DET002"
        assert finding["line"] == 1

    def test_baseline_flag_suppresses(self, tmp_path, capsys):
        bad = self.write_bad_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert cli_main([str(bad), "--write-baseline",
                         str(baseline)]) == 0
        capsys.readouterr()
        assert cli_main([str(bad), "--baseline", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "1 baselined" in err

    def test_nonexistent_path_is_a_usage_error(self, capsys):
        # A typo'd path must not green-light CI with "0 files checked".
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["does/not/exist"])
        assert excinfo.value.code == 2
        assert "do not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json", "sarif", "github"])
    def test_from_json_renders_like_the_analysis(self, tmp_path, capsys,
                                                fmt):
        bad = self.write_bad_file(tmp_path)
        report = tmp_path / "report.json"
        assert cli_main([str(bad), "--format", "json",
                         "--output", str(report)]) == 1
        assert json.loads(report.read_text())["findings"]
        capsys.readouterr()
        cli_main([str(bad), "--format", fmt])
        direct = capsys.readouterr()
        assert cli_main(["--from-json", str(report), "--format", fmt]) == 0
        rendered = capsys.readouterr()
        assert (rendered.out, rendered.err) == (direct.out, direct.err)

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "DET004",
                        "SIM001", "RPC001", "WIRE001",
                        "FLT001", "API001", "SUP001", "ATM001",
                        "ATM002", "PRO001", "PRO002", "PRO003",
                        "PRO004", "DET101"):
            assert rule_id in out
