"""Compare saved benchmark runs of two commits, metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved standard output of ``run.py`` runs, one
file per run.  For every workload and metric it prints both medians, the
relative change, the parent runs' own spread (interquartile range over
median) and a verdict against the metric's bound in ``BENCHMARK.json``:

- ``ok`` or ``REGRESSED`` when the parent's spread is within the bound;
- otherwise ``unresolved``, unless every change run reads better than every
  parent run (``ok``): a median moved by less than the noise says nothing.

Exit status: 1 if a metric regressed, 3 if none regressed but some are
unresolved, 0 otherwise.  It refuses (exit 2) to compare runs made with
different ``cpu_count``: a number from another machine is no baseline.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from workloads import ROOT


def load_runs(directory: str) -> List[Tuple[dict, dict]]:
    runs = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.startswith("{")]
        if len(lines) >= 2 and "provenance" in json.loads(lines[-2]):
            runs.append((json.loads(lines[-2])["provenance"], json.loads(lines[-1])))
    return runs


def series(runs) -> Dict[Tuple[str, int, str], List[float]]:
    values: Dict[Tuple[str, int, str], List[float]] = defaultdict(list)
    for record, result in runs:
        for metric, entry in result["metrics"].items():
            values[(record["workload"], record["trace"], metric)].append(entry["value"])
    return values


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median; infinite when it cannot be known."""

    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return math.inf
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def verdict(spec: dict, parent: Sequence[float], change: Sequence[float]) -> str:
    """``ok``, ``REGRESSED`` or ``unresolved``; empty for unbounded metrics."""

    bound = spec.get("bound")
    if bound is None:
        return ""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    if spread(parent) > bound:
        better = all(sign * new < sign * old for new in change for old in parent)
        return "ok" if better else "unresolved"
    old, new = statistics.median(parent), statistics.median(change)
    worse = sign * (new - old) / old if old else 0.0
    return "REGRESSED" if worse > bound else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    cpus = {record["cpu_count"] for record, _ in parent + change}
    if len(cpus) != 1:
        print(f"refusing to compare: runs come from cpu_count {sorted(cpus)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    specs = {entry["name"]: entry for entry in document["end_to_end"] + document["per_layer"]}
    before, after = series(parent), series(change)
    verdicts = []
    for key in sorted(before.keys() & after.keys()):
        workload, _, metric = key
        old, new = statistics.median(before[key]), statistics.median(after[key])
        change_share = (new - old) / old if old else 0.0
        verdicts.append(verdict(specs[metric], before[key], after[key]))
        print(
            f"{workload:14} {metric:34} {old:12.4f} {new:12.4f} {change_share:+8.1%} "
            f"spread {spread(before[key]):6.3f} {verdicts[-1]}"
        )
    if "REGRESSED" in verdicts:
        return 1
    return 3 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
