"""Compare two reports of ``run.py --out``: parent A, change B.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (end-to-end metric, workload). B's value may be worse than
A's by at most the metric's bound in BENCHMARK.json, as a share of A's
value. A pair whose repeats spread (first to third quartile, as a share
of the median) wider than the bound on either side is ``unresolved``, not
``ok``: the benchmark could not have seen a regression of that size.
Repeats whose wall time exceeds their CPU time by more than 15 % shared
the machine with something and are listed as disturbed. A ``sim_digest``
that differs means the change is not host-only. Exits 1 on a regression.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from run import load_spec

__all__ = ["compare"]

#: A repeat is disturbed when wall ÷ CPU seconds exceeds this.
DISTURBED = 1.15


def _relative_spread(entry: Dict[str, Any]) -> float:
    """Quartile distance of a host metric's repeats as a share of their
    median; a simulated metric has one value and no spread."""
    if entry["clock"] == "sim":
        return 0.0
    return (entry["q3"] - entry["q1"]) / entry["median"]


def compare(parent: Dict[str, Any], change: Dict[str, Any],
            spec: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Rows ``{workload, metric, parent, change, worse_by, bound,
    status}`` and free-form notes (disturbed repeats, digest changes)."""
    rows: List[Dict[str, Any]] = []
    notes: List[str] = []
    for workload, before in parent["workloads"].items():
        after = change["workloads"].get(workload)
        if after is None:
            notes.append(f"{workload}: missing from the second report")
            continue
        if before["sim_digest"] != after["sim_digest"]:
            notes.append(
                f"{workload}: sim_digest differs "
                f"({before['sim_digest'][:12]} vs "
                f"{after['sim_digest'][:12]}): simulated results changed")
        for label, side in (("A", before), ("B", after)):
            for index, repeat in enumerate(side["repeats"]):
                if repeat["wall_over_cpu"] > DISTURBED:
                    notes.append(
                        f"{workload}: repeat {index} of {label} disturbed "
                        f"(wall/CPU {repeat['wall_over_cpu']:.2f})")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = before["end_to_end"][name], after["end_to_end"][name]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
            if max(_relative_spread(a), _relative_spread(b)) > bound:
                status = "unresolved"
            elif worse_by > bound:
                status = "regression"
            else:
                status = "ok"
            rows.append({"workload": workload, "metric": name,
                         "parent": a["value"], "change": b["value"],
                         "worse_by": worse_by, "bound": bound,
                         "status": status})
    return rows, notes


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    rows, notes = compare(reports[0], reports[1], load_spec())
    print(f"{'workload':<11}{'metric':<22}{'A':>13}{'B':>13}"
          f"{'worse by':>10}{'bound':>7}  status")
    for row in rows:
        print(f"{row['workload']:<11}{row['metric']:<22}"
              f"{row['parent']:>13.6g}{row['change']:>13.6g}"
              f"{row['worse_by']:>+10.2%}{row['bound']:>7.0%}  "
              f"{row['status']}")
    for note in notes:
        print(f"note: {note}")
    return 1 if any(row["status"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
