"""End-to-end tests for sansim schedule exploration.

Every trial is checked by the history audit (``run_audit``), the oracle
the nemesis scenarios use. These pin the audited trials of the default
workloads, the first fractured snapshot the explorer finds on ``mftl``
(a strict xfail until the read path is fixed), replay determinism, and
the ``repro sansim`` CLI contract the CI job depends on.
"""

import json

import pytest

from repro.cli import main
from repro.sansim.explorer import explore, parse_replay_spec, run_trial

#: (audit passed, committed transactions) of each trial, seed 1. A
#: schedule or workload change moves the count; a protocol bug the
#: explorer reaches flips the verdict.
AUDIT_PINS = {
    "retwis:0:fifo:1": (True, 122),
    "retwis:1:random:1": (True, 121),
    "retwis:2:random:1": (True, 122),
    "ycsb:0:fifo:1": (True, 375),
    "ycsb:1:random:1": (True, 377),
    "ycsb:2:random:1": (True, 377),
}

#: The first failing trial ``explore("retwis-mftl", seed=0)`` reports.
MFTL_FRACTURE = "retwis-mftl:2:random:0"


class TestAuditPins:
    @pytest.mark.parametrize("spec", sorted(AUDIT_PINS))
    def test_trial_audit(self, spec):
        audit = run_trial(parse_replay_spec(spec)).audit
        assert (audit.passed, audit.committed_txns) == AUDIT_PINS[spec]


class TestMftlFracture:
    def test_explorer_reports_the_pinned_spec_first(self):
        result = explore("retwis-mftl", trials=3, seed=0)
        assert [r.spec.render() for r in result.failures] == [MFTL_FRACTURE]

    @pytest.mark.xfail(strict=True, reason=(
        "Known bug 1 (EXPERIMENTS.md): a locally validated read-only "
        "transaction commits a fractured snapshot on mftl. In this "
        "schedule read-only t3.2 reads key:8 at t3.1's version "
        "(0.000559, 3) but key:0 at the initial version, although t3.1 "
        "wrote key:0 at (0.000559, 3) too; later t3.18 reads key:9 at "
        "t1.19's version but key:1 below it, the audit's cycle "
        "(t3.18, t1.19). milana.get picks the version inside "
        "PackedVersionStore._get and checks the prepared flag only "
        "after the page read resumes, so a commit that becomes visible "
        "in between goes unseen."))
    def test_replayed_fracture_audits_clean(self):
        assert run_trial(parse_replay_spec(MFTL_FRACTURE)).passed


class TestCli:
    def test_failing_audit_fails_the_run(self, capsys):
        assert main(["sansim", "--replay", MFTL_FRACTURE]) == 1
        out = capsys.readouterr().out
        assert "serializable        False" in out
        assert f"--replay {MFTL_FRACTURE}" in out

    def test_replay_mode(self, capsys):
        assert main(["sansim", "--replay", "retwis:0:fifo:1"]) == 0
        out = capsys.readouterr().out
        assert out.split() == ["retwis:0:fifo:1", "PASS", "committed=122"]

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["sansim", "retwis", "--trials", "2", "--seed", "1",
                     "--format", "json", "--output", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["tool"] == "sansim"
        assert payload["failing"] == []
        trials = payload["runs"][0]["trials"]
        assert [t["spec"] for t in trials] == ["retwis:0:fifo:1",
                                               "retwis:1:random:1"]
        assert [t["committed_txns"] for t in trials] == [122, 121]
        assert all(t["passed"] and t["handler_errors"] == 0
                   for t in trials)

    def test_list_workloads(self, capsys):
        assert main(["sansim", "--list-workloads"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["retwis (default)", "ycsb (default)", "retwis-mftl"]

    def test_unknown_workload_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sansim", "no-such-workload"])
        assert excinfo.value.code == 2
        capsys.readouterr()
