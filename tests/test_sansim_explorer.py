"""End-to-end tests for sansim schedule exploration.

These drive the real explorer over the seeded CTP-race fixture (the
pre-PR-4 commit-without-lock bug preserved under
``tests/fixtures/sansim/``) and over a clean production workload,
check the golden witness snapshot, replay determinism, the
static/dynamic reconciliation report, and the ``repro sansim`` CLI
contract the CI job depends on.

Paths inside witnesses are cwd-relative, so — like the analyzer tests —
this module expects to run from the repository root.
"""

import json
import os

import pytest

from repro.analysis.engine import analyze_paths
from repro.sansim.explorer import explore, parse_replay_spec, run_trial
from repro.sansim.report import (
    CONFIRMED,
    DYNAMIC_ONLY,
    STATIC_ONLY,
    build_report,
    render_payload,
)
from repro.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "sansim",
                      "golden.json")
FIXTURE_SCOPE = os.path.join("tests", "fixtures", "sansim")


@pytest.fixture(scope="module")
def ctp_race_result():
    """One exploration of the seeded fixture, shared across tests.

    Uses the exact trial budget and seed of the CI job and the golden
    snapshot so a drift shows up here first.
    """
    return explore("ctp-race", trials=5, seed=1)


class TestSeededFixture:
    def test_explorer_finds_the_race(self, ctp_race_result):
        rules = {w.rule_id for w in ctp_race_result.witnesses}
        assert rules == {"SAN001", "SAN002"}

    def test_single_apply_violation_witnessed(self, ctp_race_result):
        single_apply = [w for w in ctp_race_result.witnesses
                        if "single-apply invariant violated" in w.message]
        assert len(single_apply) == 1
        assert single_apply[0].location == "txn-apply@srv-0-0"

    def test_witness_sites_name_the_fixture_functions(self,
                                                      ctp_race_result):
        functions = {(w.acting.function, w.prior.function)
                     for w in ctp_race_result.witnesses}
        assert ("_apply_outcome", "_run_ctp_racy") in functions
        assert ("_apply_outcome", "_apply_commit") in functions
        paths = {w.acting.path for w in ctp_race_result.witnesses}
        assert paths == {os.path.join(FIXTURE_SCOPE, "milana",
                                      "ctp_race.py")}

    def test_matches_golden_snapshot(self, ctp_race_result):
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
        assert ctp_race_result.trials == golden["trials"]
        assert ctp_race_result.seed == golden["seed"]
        got = sorted(w.fingerprint for w in ctp_race_result.witnesses)
        want = sorted(entry["fingerprint"]
                      for entry in golden["witnesses"])
        assert got == want

    def test_replay_seed_reproduces_witnesses(self, ctp_race_result):
        # Every witness's replay spec, re-run standalone, must
        # deterministically reproduce that witness.
        specs = {w.replay_command.split("--replay ")[1]
                 for w in ctp_race_result.witnesses}
        for spec_text in sorted(specs):
            result = run_trial(parse_replay_spec(spec_text))
            replayed = {w.fingerprint for w in result.witnesses}
            expected = {
                w.fingerprint for w in ctp_race_result.witnesses
                if w.replay_command.endswith(spec_text)
            }
            assert expected <= replayed, spec_text

    def test_fixed_control_is_witness_free(self):
        result = run_trial(parse_replay_spec("ctp-race-safe:0:fifo:1"))
        assert result.witnesses == []
        # The control actually exercised the same machinery.
        assert result.stats["tracked_writes"] > 0


class TestCleanTree:
    def test_retwis_smoke_has_no_witnesses(self):
        result = run_trial(parse_replay_spec("retwis:0:fifo:1"))
        assert result.witnesses == []
        assert result.stats["tracked_writes"] > 0
        assert result.stats["contexts"] > 0


#: (tracked_reads, tracked_writes, locations, witnesses) of one fifo
#: trial. An access the instrumentation gains or loses moves these, and
#: an extra read is not harmless: it joins the last writer's clock and
#: can hide a real race.
INSTRUMENTATION_PINS = {
    "retwis:0:fifo:1": (1401, 1161, 434, 0),
    "ycsb:0:fifo:1": (1553, 2033, 950, 0),
    "ctp-race-safe:0:fifo:1": (12, 15, 10, 0),
}


class TestInstrumentationPins:
    @pytest.mark.parametrize("spec", sorted(INSTRUMENTATION_PINS))
    def test_trial_sees_exactly_the_pinned_accesses(self, spec):
        stats = run_trial(parse_replay_spec(spec)).stats
        got = (stats["tracked_reads"], stats["tracked_writes"],
               stats["locations"], stats["witnesses"])
        assert got == INSTRUMENTATION_PINS[spec]


class TestReconciliation:
    def test_static_rules_fire_on_fixture(self):
        findings, _files = analyze_paths([FIXTURE_SCOPE],
                                         select=["ATM001", "ATM002"])
        assert {f.rule_id for f in findings} == {"ATM001", "ATM002"}

    def test_fixture_findings_confirmed_by_witness(self, ctp_race_result):
        report = build_report([ctp_race_result])
        assert report.scopes == [FIXTURE_SCOPE]
        summary = report.summary
        assert summary[CONFIRMED] >= 1
        assert summary[STATIC_ONLY] == 0
        assert summary[DYNAMIC_ONLY] == 0
        confirmed = [e for e in report.entries
                     if e["status"] == CONFIRMED]
        assert all(e["witnesses"] for e in confirmed)
        assert {e["static"]["rule"] for e in confirmed} == \
            {"ATM001", "ATM002"}

    def test_payload_shape(self, ctp_race_result):
        report = build_report([ctp_race_result])
        payload = render_payload([ctp_race_result], report)
        assert payload["tool"] == "sansim"
        run = payload["runs"][0]
        assert run["workload"] == "ctp-race"
        assert sorted(run["witnesses"]) == \
            sorted(w["fingerprint"] for w in payload["witnesses"])
        assert payload["reconciliation"]["summary"][CONFIRMED] >= 1


class TestCli:
    def test_witnesses_fail_the_run(self, capsys):
        assert main(["sansim", "ctp-race", "--trials", "1"]) == 1
        out = capsys.readouterr().out
        assert "SAN001" in out
        assert "--replay ctp-race:0:fifo:0" in out

    def test_expect_witness_inverts_polarity(self, capsys):
        assert main(["sansim", "ctp-race", "--trials", "1",
                     "--expect-witness"]) == 0
        capsys.readouterr()

    def test_replay_mode(self, capsys):
        assert main(["sansim", "ctp-race", "--replay", "ctp-race:0:fifo:1",
                     "--expect-witness"]) == 0
        capsys.readouterr()

    def test_baseline_roundtrip(self, tmp_path, capsys):
        baseline = tmp_path / "sansim-baseline.json"
        assert main(["sansim", "ctp-race", "--trials", "1", "--write-baseline",
                     str(baseline)]) == 0
        assert main(["sansim", "ctp-race", "--trials", "1", "--baseline",
                     str(baseline)]) == 0
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["sansim", "ctp-race", "--trials", "1", "--format", "json",
              "--output", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["tool"] == "sansim"
        assert payload["witnesses"]
        assert payload["reconciliation"]["summary"][CONFIRMED] >= 1

    def test_sarif_format_carries_san_rules(self, tmp_path, capsys):
        out = tmp_path / "report.sarif"
        main(["sansim", "ctp-race", "--trials", "1", "--format", "sarif",
              "--output", str(out)])
        capsys.readouterr()
        sarif = json.loads(out.read_text(encoding="utf-8"))
        run = sarif["runs"][0]
        rule_ids = {r["id"] for r in
                    run["tool"]["driver"]["rules"]}
        assert {"SAN001", "SAN002"} <= rule_ids
        assert run["results"]

    def test_list_workloads(self, capsys):
        assert main(["sansim", "--list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "ctp-race" in out
        assert "retwis" in out

    def test_unknown_workload_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sansim", "no-such-workload"])
        assert excinfo.value.code == 2
        capsys.readouterr()
