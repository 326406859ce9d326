"""The repository benchmark: four closed-loop workloads, two clocks.

    python3 benchmarks/e2e/run.py [--workload W]... [--seed N]
                                  [--seconds S] [--trace 0|1] [--out FILE]

Every (workload, repeat) runs in a child interpreter (``repeat.py``), one
at a time, repeats interleaved across the selected workloads so that host
drift spreads evenly. A workload is repeated, with the same seed, as often
as brings its timed host seconds nearest to ``--seconds``, and at least
twice. End-to-end numbers come from these untraced repeats; with
``--trace 1`` one more child per workload runs a quarter of the simulated
duration under cProfile and gives the per-layer numbers.

Simulated metrics repeat exactly for a seed; host timings are noisy and
are those of the best repeat, with the median and quartiles beside them.
See README.md for the glossary. The metric names, units, bounds and the
reasons for the workloads are read from BENCHMARK.json at the root of the
repository.

The last line of standard output is, per workload, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The exit
code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

from layers import SRC

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))

#: Share of the full simulated duration that the traced pass runs.
TRACED_SCALE = 0.25
#: A child that runs longer than this has hung.
CHILD_TIMEOUT_S = 150

#: What the paper reports at a workload's shape, where it does. Nothing
#: here is gated. The retwis shapes are a few thousand keys for a fraction
#: of a simulated second against the paper's millions of keys for 15
#: minutes, so EXPERIMENTS.md compares shapes there, not values.
REFERENCE = {
    "kv_get": {
        "metric": "sim_throughput_ops_s", "paper_value": 456e3,
        "source": "Table 1, MFTL, 100 % GET",
        "experiments_row": "Table 1: 100 % GET: MFTL 456 k vs VFTL 351 k",
    },
    "kv_put": {"experiments_row": "Table 1: VFTL wins at 25 % GET"},
    "retwis_ro": {"experiments_row": "Figure 8: latency vs throughput"},
    "retwis_rw": {"experiments_row": "Figure 7: PTP vs NTP abort rates"},
}


def load_spec() -> Dict[str, Any]:
    """BENCHMARK.json: workloads, metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, scale: float,
              traced: bool) -> Dict[str, Any]:
    """One repeat in a fresh interpreter; its JSON report."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "repeat.py"), workload,
         str(seed), repr(scale), "1" if traced else "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"repeat of {workload} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _host(values: List[float], pick=statistics.median) -> Dict[str, Any]:
    """A host metric over the repeats: the value ``pick`` selects, with
    what is needed to judge it: the median, the quartiles (of a single
    value, that value) and every repeat."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": pick(values), "n": len(values), "clock": "host",
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "repeats": values}


def end_to_end(repeats: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The seven end-to-end metrics of one workload.

    The two host timings are those of the *best* repeat (``n`` repeats,
    median and quartiles beside it). Interference on a shared machine only
    ever slows a repeat down, in bursts of seconds to minutes, so the
    fastest repeat is the one that measured the code; the median of three
    moved by 11 to 14 % between two runs of one commit where the best
    moved by 1 to 2 %. Simulated metrics are those of the first repeat
    (``n`` operations), every repeat having the same.
    """
    sim = repeats[0]["sim"]
    decided, committed = sim["ops_decided"], sim["ops_committed"]

    def simulated(value: float, n: int) -> Dict[str, Any]:
        return {"value": value, "n": n, "clock": "sim"}

    return {
        "setup_s": _host([r["setup_s"] for r in repeats], min),
        "host_ops_per_s": _host(
            [r["sim"]["ops_decided"] / r["timed_s"] for r in repeats], max),
        "host_peak_rss_mb": _host([r["peak_rss_mb"] for r in repeats]),
        "sim_throughput_ops_s":
            simulated(committed / sim["window_s"], committed),
        "sim_latency_p50_us": simulated(sim["latency_p50_us"], decided),
        "sim_latency_p99_us": simulated(sim["latency_p99_us"], decided),
        "commit_rate": simulated(committed / decided, decided),
    }


def per_layer(repeats: List[Dict[str, Any]], traced: Dict[str, Any],
              host_ops_per_s: float) -> Dict[str, float]:
    """Layer attribution from the traced pass beside the model counters
    of the untraced run.

    ``host_us_per_op`` divides a layer's share by the *untraced* rate, so
    a layer that gets faster does not inflate its neighbours the way a
    bare share does.
    """
    total = sum(traced["layer_seconds"].values())
    metrics: Dict[str, float] = {}
    for layer, seconds in traced["layer_seconds"].items():
        metrics[f"{layer}.host_share"] = seconds / total
        metrics[f"{layer}.host_us_per_op"] = \
            seconds / total * 1e6 / host_ops_per_s
    traced_ops = traced["sim"]["ops_decided"]
    calls = traced["calls"]
    messages = traced["sim"]["messages_sent"]
    metrics["sim.processes_per_op"] = calls["processes"] / traced_ops
    metrics["wire.size_calls_per_msg"] = \
        calls["size_calls"] / messages if messages else 0.0
    metrics["histogram.records_per_op"] = \
        calls["histogram_records"] / traced_ops
    metrics["trace.overhead_x"] = \
        traced["timed_s"] / traced_ops * host_ops_per_s
    metrics["sim.events_per_host_s"] = max(
        r["sim"]["events"] / r["timed_s"] for r in repeats)
    metrics.update(repeats[0]["sim"]["counters"])
    return metrics


def check(repeats: List[Dict[str, Any]], traced: Any) -> List[str]:
    """Everything wrong with a workload's outputs; empty when correct."""
    problems = [problem for report in repeats for problem in
                report["problems"]]
    if len({report["sim_digest"] for report in repeats}) > 1:
        problems.append("sim_digest differs between repeats of one seed")
    if traced is not None:
        problems += [f"traced pass: {problem}"
                     for problem in traced["problems"]]
    return problems


def reference(workload: str, metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Paper value and relative error where the paper has this shape;
    otherwise a pointer to the EXPERIMENTS.md row that compares shapes."""
    block = dict(REFERENCE[workload])
    if "paper_value" in block:
        measured = metrics[block["metric"]]["value"]
        block["measured"] = measured
        block["relative_error"] = \
            (measured - block["paper_value"]) / block["paper_value"]
        block["other_simulated_metrics"] = "unvalidated at this scale"
    else:
        block["simulated_metrics"] = "unvalidated at this scale"
    return block


def render(name: str, result: Dict[str, Any],
           spec: Dict[str, Any]) -> List[str]:
    lines = [f"== {name}: ops_attempted={result['ops_attempted']} "
             f"ops_failed={result['ops_failed']} "
             f"sim_digest={result['sim_digest'][:12]}"]
    for metric in spec["end_to_end"]:
        entry = result["end_to_end"][metric["name"]]
        detail = f"n={entry['n']}"
        if entry["clock"] == "host":
            detail += (f" median={entry['median']:.6g} "
                       f"q1={entry['q1']:.6g} q3={entry['q3']:.6g}")
        lines.append(f"  {metric['name']:<24}{entry['value']:>14.6g} "
                     f"{metric['unit']:<9} [{entry['clock']}] {detail}")
    if "per_layer" in result:
        for metric in spec["per_layer"]:
            value = result["per_layer"][metric["name"]]
            lines.append(
                f"  {metric['name']:<34}{value:>14.6g} {metric['unit']}")
    block = result["reference"]
    if "relative_error" in block:
        lines.append(
            f"  reference: {block['metric']} paper {block['paper_value']:g}"
            f" ({block['source']}), relative error "
            f"{block['relative_error']:+.2%}; other simulated metrics "
            f"unvalidated at this scale")
    else:
        lines.append("  reference: simulated metrics unvalidated at this "
                     f"scale (EXPERIMENTS.md, {block['experiments_row']})")
    lines += [f"  PROBLEM: {problem}" for problem in result["problems"]]
    return lines


def main(argv: List[str]) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="timed host seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", help="write the full JSON report here")
    args = parser.parse_args(argv)
    selected = args.workload or names
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no program to measure: {SRC}/repro missing")
    sys.path.insert(0, SRC)
    from repro.bench.runner import host_metadata

    repeats: Dict[str, List[Dict[str, Any]]] = {w: [] for w in selected}
    pending = list(selected)
    while pending:
        for workload in list(pending):
            repeats[workload].append(
                run_child(workload, args.seed, 1.0, traced=False))
            # Stop at the repeat count whose timed seconds come nearest
            # to --seconds (one more when it overshoots by less than
            # stopping here undershoots), but never at a single repeat:
            # the best of one is whatever the machine was doing.
            count = len(repeats[workload])
            timed = sum(r["timed_s"] for r in repeats[workload])
            if count > 1 and timed + timed / count / 2 >= args.seconds:
                pending.remove(workload)

    report: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds,
        "host": host_metadata(),
        "workloads": {},
    }
    lines = []
    for workload in selected:
        runs = repeats[workload]
        traced = (run_child(workload, args.seed, TRACED_SCALE, traced=True)
                  if args.trace else None)
        metrics = end_to_end(runs)
        result: Dict[str, Any] = {
            "ops_attempted": runs[0]["sim"]["ops_decided"],
            "ops_failed": runs[0]["sim"]["ops_failed"],
            "sim_digest": runs[0]["sim_digest"],
            "problems": check(runs, traced),
            "end_to_end": metrics,
            "reference": reference(workload, metrics),
            "repeats": runs,
        }
        if traced is not None:
            result["per_layer"] = per_layer(
                runs, traced, metrics["host_ops_per_s"]["value"])
            result["traced"] = traced
        report["workloads"][workload] = result
        print("\n".join(render(workload, result, spec)))
        if args.trace:
            listed, values = spec["per_layer"], result["per_layer"]
        else:
            listed, values = spec["end_to_end"], {
                name: entry["value"] for name, entry in metrics.items()}
        lines.append(json.dumps({
            "correct": not result["problems"],
            "attempted": result["ops_attempted"],
            "failed": result["ops_failed"],
            "metrics": {metric["name"]: {"value": values[metric["name"]],
                                         "unit": metric["unit"]}
                        for metric in listed},
        }))

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("\n".join(lines))
    return 1 if any(result["problems"]
                    for result in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
