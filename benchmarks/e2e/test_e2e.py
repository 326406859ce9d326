"""Self-tests of the benchmark at a few percent of full size.

    PYTHONPATH=src python -m pytest benchmarks/e2e

They hold the benchmark to its contract (names, counts, every metric on
every workload) and to its own claims (shares sum to one, no package
unattributed, equal seeds give equal digests). They are not part of the
tier-1 suite, whose ``testpaths`` is ``tests``.
"""

import os
import re

import pytest

import compare
import layers
import repeat
import run
from workloads import WORKLOADS

TINY = 0.03
SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def tiny():
    """One untraced and one traced repeat of every workload."""
    return {name: (repeat.run_repeat(name, 7, TINY, traced=False),
                   repeat.run_repeat(name, 7, TINY, traced=True))
            for name in WORKLOADS}


def test_spec_names_and_counts():
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == list(WORKLOADS)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = workloads + [m["name"] for m in
                         SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(run.REFERENCE) == set(WORKLOADS)


def test_every_workload_emits_every_metric(tiny):
    for name, (untraced, traced) in tiny.items():
        assert untraced["problems"] == [] and traced["problems"] == [], name
        assert untraced["sim"]["ops_failed"] == 0, name
        metrics = run.end_to_end([untraced])
        assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
        for metric, entry in metrics.items():
            assert entry["value"] > 0, (name, metric)
        by_layer = run.per_layer(
            [untraced], traced, metrics["host_ops_per_s"]["value"])
        assert sorted(by_layer) == sorted(
            m["name"] for m in SPEC["per_layer"]), name


def test_layer_shares_sum_to_one(tiny):
    for name, (untraced, traced) in tiny.items():
        by_layer = run.per_layer([untraced], traced, 1.0)
        shares = [by_layer[f"{layer}.host_share"]
                  for layer in layers.LAYERS]
        assert abs(sum(shares) - 1.0) < 1e-6, name


def test_layer_predictions_hold(tiny):
    """The 'should not move' column of the README at its crudest: the
    layers a workload bypasses cost it nothing."""
    for name in ("kv_get", "kv_put"):
        seconds = tiny[name][1]["layer_seconds"]
        assert seconds["net"] == seconds["wire"] == seconds["milana"] == 0
    counters = {name: tiny[name][0]["sim"]["counters"] for name in tiny}
    assert counters["retwis_ro"]["durability.fsyncs_per_commit"] == 0
    assert counters["retwis_rw"]["durability.fsyncs_per_commit"] > 0
    assert counters["kv_get"]["ftl.gc_runs"] == 0


def test_every_repro_package_has_a_layer():
    package = os.path.join(layers.SRC, "repro")
    for entry in sorted(os.listdir(package)):
        path = os.path.join(package, entry)
        if entry == "__pycache__" or not (
                os.path.isdir(path) or entry.endswith(".py")):
            continue
        source = path if entry.endswith(".py") else \
            os.path.join(path, "__init__.py")
        assert layers.layer_of_path(source) in layers.LAYERS, entry
    with pytest.raises(KeyError):
        layers.layer_of_path(os.path.join(package, "newpkg", "mod.py"))
    assert layers.layer_of_path("~") == "stdlib"
    assert layers.layer_of_path(repeat.__file__) == "bench"


def test_equal_seeds_give_equal_digests(tiny):
    for name, (untraced, _) in tiny.items():
        again = repeat.run_repeat(name, 7, TINY, traced=False)
        assert again["sim_digest"] == untraced["sim_digest"], name
        other = repeat.run_repeat(name, 8, TINY, traced=False)
        assert other["sim_digest"] != untraced["sim_digest"], name


def _report(host_rates, digest="d", wall_over_cpu=1.0):
    metrics = run.end_to_end([
        {"setup_s": 1.0, "timed_s": 100.0 / rate, "peak_rss_mb": 30.0,
         "sim": {"ops_decided": 100, "ops_committed": 90, "window_s": 0.1,
                 "latency_p50_us": 700.0, "latency_p99_us": 1600.0}}
        for rate in host_rates])
    repeats = [{"wall_over_cpu": wall_over_cpu} for _ in host_rates]
    return {"workloads": {"w": {"sim_digest": digest, "repeats": repeats,
                                "end_to_end": metrics}}}


def test_compare_flags_regression_unresolved_and_disturbed():
    def status(parent, change):
        rows, notes = compare.compare(parent, change, SPEC)
        return {row["metric"]: row["status"] for row in rows}, notes

    steady = _report([100.0, 101.0, 102.0])
    statuses, notes = status(steady, _report([99.0, 100.0, 101.0]))
    assert set(statuses.values()) == {"ok"} and notes == []

    statuses, _ = status(steady, _report([69.0, 70.0, 71.0]))
    assert statuses["host_ops_per_s"] == "regression"
    assert statuses["sim_latency_p50_us"] == "ok"

    statuses, _ = status(steady, _report([70.0, 100.0, 130.0]))
    assert statuses["host_ops_per_s"] == "unresolved"

    _, notes = status(steady, _report([100.0, 101.0, 102.0], digest="e",
                                      wall_over_cpu=1.3))
    assert any("sim_digest differs" in note for note in notes)
    assert sum("disturbed" in note for note in notes) == 3
