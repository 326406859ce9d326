"""Tests for the whole-program simlint engine.

Covers the project model (symbol table, call-graph resolution,
exception-propagation fixpoint, the InlineWalker event stream), the
interprocedural rule families via golden snapshots over
``tests/fixtures/analysis/``, the SUP001 useless-suppression meta-rule,
the baseline staleness lifecycle, and the SARIF/github output formats.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline, analyze_paths
from repro.analysis.cli import main as cli_main
from repro.analysis.engine import ModuleContext, all_rules
from repro.analysis.project import InlineWalker, Project, uncaught
from repro.analysis.sarif import render_sarif

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"


def make_project(sources):
    """Build a Project from {path: source} mappings."""
    contexts = [ModuleContext(path, textwrap.dedent(source))
                for path, source in sources.items()]
    return Project(contexts)


def run_on(tmp_path, source, name="snippet.py", **kwargs):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    findings, files = analyze_paths([str(path)], **kwargs)
    assert files == 1
    return findings


# -- golden snapshots per rule family --------------------------------------


class TestGoldenFindings:
    @pytest.mark.parametrize("family", ["atm", "pro", "det", "dur"])
    def test_family_matches_golden(self, family):
        root = FIXTURES / family
        golden = json.loads((root / "golden.json").read_text())
        findings, files = analyze_paths([str(root)],
                                        select=golden["select"])
        assert files >= 1
        # Golden paths are relative to the family dir so the snapshot
        # does not depend on the directory pytest was launched from.
        prefix = root.as_posix() + "/"
        got = []
        for f in findings:
            entry = f.to_json()
            entry.pop("fingerprint")
            full = Path(entry["path"]).resolve().as_posix()
            assert full.startswith(prefix), entry
            entry["path"] = full[len(prefix):]
            got.append(entry)
        assert got == golden["findings"]

    def test_each_family_catches_a_seeded_bug(self):
        for family, rules in [("atm", {"ATM001", "ATM002"}),
                              ("pro", {"PRO001", "PRO002", "PRO003",
                                       "PRO004"}),
                              ("det", {"DET101"}),
                              ("dur", {"DUR001", "DUR002", "DUR003",
                                       "DUR004", "DUR005"})]:
            golden = json.loads(
                (FIXTURES / family / "golden.json").read_text())
            fired = {entry["rule"] for entry in golden["findings"]}
            assert fired, family
            assert fired <= rules, family


# -- DUR: crash-consistency rules ------------------------------------------


class TestDurRules:
    """Unit tests for the DUR family over miniature projects; the golden
    snapshot covers the fixture corpus end to end."""

    HANDLER = """\
        class SemelPutReply:
            def __init__(self, applied=False):
                self.applied = applied


        class Server:
            def __init__(self, sim, node, backend, wal):
                self.sim = sim
                self.node = node
                self.backend = backend
                self.wal = wal
                self.node.register("semel.put", self._handle_put)

            def _handle_put(self, request):
                yield self.backend.put(request.key, request.value,
                                       request.version)
                {append}
                yield from self._replicate(request)
                return SemelPutReply(applied={applied})

            def _replicate(self, request):
                yield self.node.call("b1", "semel.replicate", request,
                                     timeout=0.01)
    """

    def _check(self, rule_id, source):
        project = make_project({"milana/mod.py": source})
        return list(all_rules()[rule_id].check_project(project))

    def test_dur001_nosync_append_before_claiming_ack(self):
        source = self.HANDLER.format(
            append=("yield from self.wal.append_put(\n"
                    "            request.key, request.value,"
                    " request.version, sync=False)"),
            applied="True")
        findings = self._check("DUR001", source)
        assert len(findings) == 1
        assert "sync=False" in findings[0].message
        assert "_replicate" in findings[0].message

    def test_dur001_config_sync_append_is_clean(self):
        source = self.HANDLER.format(
            append=("yield from self.wal.append_put(\n"
                    "            request.key, request.value,"
                    " request.version,\n"
                    "            sync=self.wal.config.sync_semel)"),
            applied="True")
        assert self._check("DUR001", source) == []

    def test_dur001_non_claiming_reply_is_exempt(self):
        # applied=False renounces durability: nothing acked can be lost.
        source = self.HANDLER.format(
            append=("yield from self.wal.append_put(\n"
                    "            request.key, request.value,"
                    " request.version, sync=False)"),
            applied="False")
        assert self._check("DUR001", source) == []

    def test_dur002_unlogged_mutation_on_wal_enabled_path(self):
        source = self.HANDLER.format(append="pass", applied="True")
        findings = self._check("DUR002", source)
        assert len(findings) == 1
        assert "no WAL append" in findings[0].message

    def test_dur002_logged_mutation_is_clean(self):
        source = self.HANDLER.format(
            append=("yield from self.wal.append_put(\n"
                    "            request.key, request.value,"
                    " request.version, sync=False)"),
            applied="True")
        assert self._check("DUR002", source) == []

    def test_dur002_wal_free_class_is_out_of_scope(self):
        # No self.wal anywhere: not a WAL-enabled surface, no debt.
        source = self.HANDLER.format(
            append="pass", applied="True").replace(
            "                self.wal = wal\n", "")
        assert self._check("DUR002", source) == []

    DUR003 = """\
        class Server:
            def __init__(self, sim):
                self.sim = sim
                self._inflight = {{}}

            def _handle(self, request):
                try:
                    yield self.sim.timeout(0.01)
                finally:
                    {cleanup}
                return None

            def crash(self):
                self._inflight = {{}}
    """

    def test_dur003_pop_without_default(self):
        findings = self._check(
            "DUR003",
            self.DUR003.format(cleanup="self._inflight.pop(request.key)"))
        assert len(findings) == 1
        assert ".pop(key, None)" in findings[0].message

    def test_dur003_pop_with_default_is_clean(self):
        findings = self._check(
            "DUR003",
            self.DUR003.format(
                cleanup="self._inflight.pop(request.key, None)"))
        assert findings == []

    def test_dur003_only_applies_to_crashable_classes(self):
        source = self.DUR003.format(
            cleanup="self._inflight.pop(request.key)")
        source = source.replace(
            "            def crash(self):\n"
            "                self._inflight = {}\n", "")
        assert self._check("DUR003", source) == []

    def test_dur004_direct_wallclock_payload(self):
        findings = self._check("DUR004", """\
            import time


            class Server:
                def flush_daemon(self):
                    while True:
                        yield self.sim.timeout(1.0)
                        yield from self.wal.append(
                            "txn", ("stamp", time.time()), sync=True)
        """)
        assert len(findings) == 1
        assert "time.time" in findings[0].message

    def test_dur005_dynamic_kind_is_skipped(self):
        # A pass-through kind variable cannot be cross-checked.
        findings = self._check("DUR005", """\
            KNOWN = "known"


            class Server:
                def log(self, kind, payload):
                    yield from self.wal.append(kind, payload, sync=True)

                def replay_wal(self):
                    for entry in self.wal.durable_records():
                        if entry.kind == KNOWN:
                            yield self.backend.put(entry.payload)
        """)
        assert findings == []

    def test_dur005_silent_without_a_replay_dispatcher(self):
        # Partial analyses must not indict kinds whose arms they never read.
        findings = self._check("DUR005", """\
            class Server:
                def log(self, payload):
                    yield from self.wal.append("orphan", payload,
                                               sync=True)
        """)
        assert findings == []

    def test_dur001_counterpart_names_the_dynamic_twin(self):
        rule = all_rules()["DUR001"]
        assert "test_durability" in rule.counterpart

    def test_dur001_fixture_window_matches_lost_write_witness(self):
        """The acceptance coupling: the DUR001 golden finding's suspend
        window is the replication wait — the exact seam where the lossy
        nemesis control in test_durability.py loses the acked write."""
        golden = json.loads(
            (FIXTURES / "dur" / "golden.json").read_text())
        entry = next(e for e in golden["findings"]
                     if e["rule"] == "DUR001")
        fixture = FIXTURES / "dur" / "milana" / "ack_before_fsync.py"
        lines = fixture.read_text().splitlines()
        witness = next(i for i, line in enumerate(lines, 1)
                       if "lost-write crash window" in line)
        # The suspend is the multi-line yield ending at the comment.
        assert f"line {witness - 1} loses the acked write" \
            in entry["message"]


# -- PRO001: the registry against the call sites ---------------------------


class TestPro001Rules:
    """PRO001 over miniature projects: one test per kind of drift
    between the wire registry and the code."""

    SERVER = """\
        from repro.semel.replication import replicate_to_backups


        class Server:
            def __init__(self, node):
                self.node = node
                self.node.register("master.heartbeat", self._handle)
                self.node.register("master.lookup", self._handle)
                {extra}

            def _handle(self, request):
                yield from ()
                return None

            def _push(self, request):
                {push}
    """

    def _messages(self, extra="pass", push="yield from ()"):
        source = self.SERVER.format(extra=extra, push=push)
        project = make_project({"harness/mod.py": source})
        rule = all_rules()["PRO001"]
        return [finding.message for finding in rule.check_project(project)]

    def test_complete_surface_is_clean(self):
        push = ("yield from replicate_to_backups(\n"
                "                    self.node, [], \"master.heartbeat\","
                " request, 1,\n"
                "                    timeout=0.01)")
        assert self._messages(push=push) == []

    def test_register_of_an_unregistered_method(self):
        messages = self._messages(
            extra='self.node.register("master.frobnicate", self._handle)')
        assert messages == [
            "register of 'master.frobnicate', which has no MethodSpec "
            "in the repro.wire registry"]

    @pytest.mark.parametrize("kind", ["call", "send_oneway"])
    def test_send_of_an_unregistered_method_in_an_unknown_namespace(
            self, kind):
        messages = self._messages(
            push=f'yield self.node.{kind}("dst", "frob.ping", request)')
        assert messages == [
            f"{kind}() to 'frob.ping', which has no MethodSpec in the "
            f"repro.wire registry"]

    def test_replicate_to_backups_of_an_unregistered_method(self):
        push = ("yield from replicate_to_backups(\n"
                "                    self.node, [], \"master.replicate\","
                " request, 1,\n"
                "                    timeout=0.01)")
        assert self._messages(push=push) == [
            "replicate_to_backups() to 'master.replicate', which has no "
            "MethodSpec in the repro.wire registry"]

    def test_method_keyword(self):
        messages = self._messages(
            extra=('self.node.register(method="master.bogus",\n'
                   '                                   '
                   'handler=self._handle)'),
            push=('yield self.node.call("dst", method="master.nope",\n'
                  '                                     payload=request)'))
        assert messages == [
            "register of 'master.bogus', which has no MethodSpec in the "
            "repro.wire registry",
            "call() to 'master.nope', which has no MethodSpec in the "
            "repro.wire registry"]

    def test_registry_entry_without_a_handler_in_a_handled_namespace(self):
        source = self.SERVER.format(extra="pass", push="yield from ()")
        source = source.replace(
            'self.node.register("master.lookup", self._handle)', "pass")
        project = make_project({"harness/mod.py": source})
        messages = [finding.message for finding in
                    all_rules()["PRO001"].check_project(project)]
        assert messages == [
            "registered wire method 'master.lookup' has no handler in the "
            "analyzed tree (namespace 'master' is handled here)"]

    def test_bare_methods_are_outside_the_registry(self):
        messages = self._messages(
            extra='self.node.register("ping", self._handle)',
            push='yield self.node.call("dst", "ping", request)')
        assert messages == []


# -- project model ---------------------------------------------------------


class TestProjectModel:
    def test_symbol_table_and_qualnames(self):
        project = make_project({"pkg/mod.py": """\
            class Server:
                def handle(self):
                    yield from self._helper()

                def _helper(self):
                    yield None

            def free():
                return 1
        """})
        names = set(project.functions)
        assert "pkg.mod.Server.handle" in names
        assert "pkg.mod.Server._helper" in names
        assert "pkg.mod.free" in names
        handle = project.functions["pkg.mod.Server.handle"]
        assert handle.is_generator

    def test_self_call_resolution_through_inheritance(self):
        project = make_project({"pkg/mod.py": """\
            class Base:
                def _shared(self):
                    return 1

            class Child(Base):
                def run(self):
                    return self._shared()
        """})
        run_info = project.functions["pkg.mod.Child.run"]
        call = run_info.call_sites[0]
        assert call.callee is not None
        assert call.callee.qualname == "pkg.mod.Base._shared"

    def test_transitive_raises_crosses_functions(self):
        project = make_project({"pkg/mod.py": """\
            class QuorumError(Exception):
                pass

            class S:
                def outer(self):
                    yield from self.inner()

                def inner(self):
                    if True:
                        raise QuorumError("lost")
                    yield None

                def guarded(self):
                    try:
                        yield from self.inner()
                    except QuorumError:
                        pass
        """})
        outer = project.functions["pkg.mod.S.outer"]
        guarded = project.functions["pkg.mod.S.guarded"]
        assert "QuorumError" in project.transitive_raises(outer)
        assert "QuorumError" not in project.transitive_raises(guarded)

    def test_transitive_raises_terminates_on_cycles(self):
        project = make_project({"pkg/mod.py": """\
            class S:
                def ping(self, n):
                    if n:
                        return self.pong(n - 1)
                    raise ValueError("done")

                def pong(self, n):
                    return self.ping(n)
        """})
        ping = project.functions["pkg.mod.S.ping"]
        pong = project.functions["pkg.mod.S.pong"]
        assert "ValueError" in project.transitive_raises(ping)
        assert "ValueError" in project.transitive_raises(pong)

    def test_except_rpcerror_does_not_cover_quorumerror(self):
        assert uncaught({"QuorumError"}, {"RpcError"})
        assert not uncaught({"QuorumError"}, {"Exception"})
        assert not uncaught({"RpcTimeout", "AppError"}, {"RpcError"})

    def test_inline_walker_sees_through_helpers(self):
        project = make_project({"milana/mod.py": """\
            class S:
                def root_daemon(self):
                    while True:
                        yield self.sim.timeout(1)
                        yield from self._work()

                def _work(self):
                    if "k" not in self.table:
                        return
                    yield self.sim.timeout(1)
                    self.table["k"] = 1
        """})
        root = project.functions["milana.mod.S.root_daemon"]
        events = InlineWalker(project).walk(root)
        kinds = [(e.kind, e.family) for e in events
                 if e.family == "table" or e.kind == "suspend"]
        guard = kinds.index(("guard_read", "table"))
        write = kinds.index(("write", "table"))
        assert guard < write
        assert any(k == ("suspend", None) for k in kinds[guard:write])

    def test_early_return_branch_suspensions_are_rolled_back(self):
        project = make_project({"milana/mod.py": """\
            class S:
                def root_daemon(self):
                    while True:
                        if "k" in self.cache:
                            yield from self._flush()
                            return
                        self.cache["k"] = 1

                def _flush(self):
                    yield self.sim.timeout(1)
        """})
        root = project.functions["milana.mod.S.root_daemon"]
        events = InlineWalker(project).walk(root)
        # The suspension lives only inside the abandoned early-return
        # branch, so it is marked dead: the write after the branch must
        # not look like it happened "after a yield" on a path that was
        # never taken alongside it.
        assert any(e.kind == "dead_suspend" for e in events)
        assert all(e.kind != "suspend" for e in events)
        assert any(e.kind == "write" and e.family == "cache"
                   for e in events)
        # ... and ATM002 agrees: no finding on this module.
        rule = all_rules()["ATM002"]
        assert list(rule.check_project(project)) == []


# -- SUP001: useless suppressions ------------------------------------------


class TestUselessSuppressions:
    def test_unused_named_suppression_reported(self, tmp_path):
        findings = run_on(tmp_path, """\
            def f():
                return 1  # simlint: disable=DET001
        """)
        assert [f.rule_id for f in findings] == ["SUP001"]
        assert "DET001" in findings[0].message

    def test_used_suppression_not_reported(self, tmp_path):
        findings = run_on(tmp_path, """\
            import time

            def f():
                return time.time()  # simlint: disable=DET001
        """)
        assert findings == []

    def test_unused_blanket_suppression_reported(self, tmp_path):
        findings = run_on(tmp_path, """\
            def f():
                return 1  # simlint: disable
        """)
        assert [f.rule_id for f in findings] == ["SUP001"]
        assert "blanket" in findings[0].message

    def test_unknown_rule_id_in_suppression_reported(self, tmp_path):
        findings = run_on(tmp_path, """\
            def f():
                return 1  # simlint: disable=NOPE999
        """)
        assert [f.rule_id for f in findings] == ["SUP001"]
        assert "NOPE999" in findings[0].message

    def test_unused_file_suppression_reported(self, tmp_path):
        findings = run_on(tmp_path, """\
            # simlint: disable-file=DET002
            def f():
                return 1
        """)
        assert [f.rule_id for f in findings] == ["SUP001"]
        assert "file" in findings[0].message

    def test_filtered_runs_skip_usefulness_judgement(self, tmp_path):
        # With --select the suppressed rule may simply not be running;
        # only unknown ids are still reported.
        findings = run_on(tmp_path, """\
            def f():
                return 1  # simlint: disable=DET001
        """, select=["SUP001"])
        assert findings == []

    def test_sup001_suppressible_per_file(self, tmp_path):
        findings = run_on(tmp_path, """\
            # simlint: disable-file=SUP001
            def f():
                return 1  # simlint: disable=DET001
        """)
        assert findings == []


# -- baseline lifecycle ----------------------------------------------------


class TestBaselineLifecycle:
    def _violating(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import time\n\ndef f():\n"
                        "    return time.time()\n")
        return path

    def test_stale_entries_detected_and_pruned(self, tmp_path):
        path = self._violating(tmp_path)
        findings, _ = analyze_paths([str(path)])
        baseline = Baseline.from_findings(findings)
        assert baseline.stale_entries(findings) == []
        path.write_text("def f():\n    return 0.0\n")
        clean, _ = analyze_paths([str(path)])
        stale = baseline.stale_entries(clean)
        assert len(stale) == len(findings)
        assert len(baseline.pruned(clean)) == 0
        # Pruning with the findings still firing keeps the entries.
        assert len(baseline.pruned(findings)) == len(findings)

    def test_cli_fail_on_stale_and_update(self, tmp_path, capsys):
        path = self._violating(tmp_path)
        base = tmp_path / "base.json"
        assert cli_main([str(path), "--write-baseline", str(base)]) == 0
        path.write_text("def f():\n    return 0.0\n")
        assert cli_main([str(path), "--baseline", str(base)]) == 0
        assert cli_main([str(path), "--baseline", str(base),
                         "--fail-on-stale"]) == 1
        assert cli_main([str(path), "--baseline", str(base),
                         "--update-baseline"]) == 0
        assert len(Baseline.load(base)) == 0
        assert cli_main([str(path), "--baseline", str(base),
                         "--fail-on-stale"]) == 0
        capsys.readouterr()

    def test_stale_count_in_json_output(self, tmp_path, capsys):
        path = self._violating(tmp_path)
        base = tmp_path / "base.json"
        cli_main([str(path), "--write-baseline", str(base)])
        path.write_text("def f():\n    return 0.0\n")
        capsys.readouterr()
        cli_main([str(path), "--baseline", str(base), "--format",
                  "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["stale_baseline"] == 1


# -- output formats --------------------------------------------------------


class TestOutputFormats:
    def test_sarif_document_shape(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import time\n\ndef f():\n"
                        "    return time.time()\n")
        findings, _ = analyze_paths([str(path)])
        log = json.loads(render_sarif(findings, all_rules()))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "simlint"
        ids = {r["id"] for r in driver["rules"]}
        assert {"DET001", "ATM001", "PRO001", "DET101", "SUP001"} <= ids
        result = run["results"][0]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 4
        assert result["partialFingerprints"]["simlint/v1"]

    def test_sarif_cli_output_file(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("def f():\n    return 1\n")
        out = tmp_path / "report.sarif"
        assert cli_main([str(path), "--format", "sarif",
                         "--output", str(out)]) == 0
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"] == []

    def test_github_annotations(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("import time\n\ndef f():\n"
                        "    return time.time()\n")
        assert cli_main([str(path), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=simlint DET001::" in out
