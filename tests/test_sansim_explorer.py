"""End-to-end tests for audit cells run under explored schedules.

Every cell is checked by the history audit (``run_audit``). These pin
the audited trials of the smoke workloads, the first fractured snapshot
random tie-breaks find on ``mftl`` (a strict xfail until the read path
is fixed), the replay string of every cell of the ``audit`` sweep row,
and the ``repro audit`` CLI contract.
"""

import pytest

from repro.cli import main
from repro.harness.nemesis import AuditSpec, default_policy, run_spec
from repro.sweep import run_sweep, sweep_cells

#: (audit passed, committed transactions) of each trial, seed 1. A
#: schedule or workload change moves the count; a protocol bug the
#: explorer reaches flips the verdict.
AUDIT_PINS = {
    "none:retwis-smoke:dram:ptp-sw:fifo:0:1": (True, 122),
    "none:retwis-smoke:dram:ptp-sw:random:1:1": (True, 121),
    "none:retwis-smoke:dram:ptp-sw:random:2:1": (True, 122),
    "none:ycsb-smoke:dram:ptp-sw:fifo:0:1": (True, 375),
    "none:ycsb-smoke:dram:ptp-sw:random:1:1": (True, 377),
    "none:ycsb-smoke:dram:ptp-sw:random:2:1": (True, 377),
}

#: The first failing trial of the smoke Retwis workload on mftl, seed 0.
MFTL_FRACTURE = "none:retwis-smoke:mftl:ptp-sw:random:2:0"


class TestAuditPins:
    @pytest.mark.parametrize("spec", sorted(AUDIT_PINS))
    def test_trial_audit(self, spec):
        audit = run_spec(AuditSpec.parse(spec)).audit
        assert (audit.passed, audit.committed_txns) == AUDIT_PINS[spec]


class TestAuditSpec:
    @pytest.mark.parametrize(
        "cell", sweep_cells("audit", scale="full"),
        ids=lambda cell: cell.label)
    def test_round_trip(self, cell):
        text = cell.params_dict()["spec"]
        assert AuditSpec.parse(text).render() == text


class TestMftlFracture:
    def test_explorer_reports_the_pinned_spec_first(self):
        specs = [AuditSpec("none", "retwis-smoke", "mftl", "ptp-sw",
                           default_policy(trial), trial, 0)
                 for trial in range(3)]
        failing = [spec.render() for spec in specs
                   if not run_spec(spec).passed]
        assert failing == [MFTL_FRACTURE]

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
        assert run_spec(AuditSpec.parse(MFTL_FRACTURE)).passed


class TestCli:
    def test_failing_audit_fails_the_run(self, capsys):
        assert main(["audit", "--replay", MFTL_FRACTURE]) == 1
        out = capsys.readouterr().out
        assert "serializable        False" in out
        assert f"--replay {MFTL_FRACTURE}" in out

    def test_replay_mode(self, capsys):
        spec = "none:retwis-smoke:dram:ptp-sw:fifo:0:1"
        assert main(["audit", "--replay", spec]) == 0
        out = capsys.readouterr().out
        assert out.startswith("nemesis scenario: none (retwis-smoke)\n")
        assert "committed txns      122" in out
        assert "replay:" not in out

    @pytest.mark.parametrize("argv", [
        ["--replay", "retwis:0:fifo:1"],
        ["--replay", "none:retwis-smoke:dram:ptp-sw:fifo:x:1"],
        ["--replay", "none:retwis-smoke:dram:ptp-sw:fifo:0:1",
         "--seed", "3"],
        ["--trials", "0"],
    ])
    def test_bad_spec_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", *argv])
        assert excinfo.value.code == 2
        assert "usage: repro audit" in capsys.readouterr().err

    def test_sweep_names_the_failing_cell(self):
        passing = "none:retwis-smoke:dram:ptp-sw:fifo:0:1"
        result = run_sweep("audit", overrides={
            "specs": (passing, MFTL_FRACTURE)})
        assert result.failures() == [MFTL_FRACTURE]

    def test_unknown_workload_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--workload", "no-such-workload"])
        assert excinfo.value.code == 2
        capsys.readouterr()
