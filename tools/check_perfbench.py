#!/usr/bin/env python
"""Campaign-benchmark correctness check (``make check-perfbench``).

Runs ``perfbench/run.py --seed 1 --seconds 5 --trace 1`` once per workload
and fails unless every run exits 0 and its result line reads
``"correct": true``: every batch filed the reports and verdicts that
``perfbench/expected.json`` records, and the traced and untraced runs of
each corpus agree.  A verdict drift, a lost reduction or a function the
tracer can no longer find fails here instead of only when the benchmark
runs.  ``expected.json`` was recorded with Python 3.11, so run it there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("clean-hotpath", "seeded-triage", "fleet-2")


def check(workload: str) -> bool:
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "5", "--trace", "1",
    ]
    process = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    correct = process.returncode == 0 and result.get("correct") is True
    print(
        f"{workload}: exit {process.returncode}, correct={result.get('correct')}, "
        f"{result.get('attempted', 0)} units, {result.get('failed', 0)} failed"
    )
    if not correct:
        sys.stderr.write(process.stderr[-4000:])
    return correct


def main() -> int:
    results = [check(workload) for workload in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
