"""The campaign benchmark: end-to-end metrics, or per-layer metrics traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload clean-hotpath --seed 1 --seconds 40 --trace 0

The seed and ``--seconds`` pick the run's corpora
(``workloads.corpus_plan``): as many as fill the run, one per cost stratum
of the recorded pool.  ``--trace 0`` runs each corpus once as a batch, a
fresh process with cold caches, and prints every end-to-end metric of
``BENCHMARK.json`` (:func:`end_to_end_metrics`).  ``--trace 1`` runs each
corpus once untraced and once traced, so per-layer counts repeat exactly
for a seed, and prints every per-layer metric.  Either way every
batch's reports and verdicts are checked against ``expected.json`` before
the result says it is correct.  The last stdout line is the result; the
line before it records provenance (cpu count, Python, commit, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from tracer import COUNTS, LAYERS
from workloads import HERE, ROOT, WORKLOADS, Workload, corpus_plan, load_expected

#: ``batch.reference_s`` on the 2-CPU VM the benchmark was defined on,
#: rounded.  Timings are reported at this machine speed: each batch's are
#: scaled by ``REFERENCE_S / reference_s`` (:func:`speed_factor`).  The
#: constant only sets the scale; every comparison on one machine cancels it.
REFERENCE_S = 0.015

#: A run starts no batch that could end past this many seconds, and a
#: batch gets at most ``BATCH_TIMEOUT_S``: a run ends within 180 s.
MAX_RUN_S = 110.0
BATCH_TIMEOUT_S = 60.0

#: Per-layer counts that depend on how a fleet places leases (by suffix and
#: by prefix): gated on the serial workloads, informational on a fleet.
PLACEMENT_SUFFIXES = (".calls", ".hit_rate")
PLACEMENT_PREFIXES = ("smt.", "testgen.abstained")


class BatchFailed(RuntimeError):
    pass


def run_batch(workload: Workload, corpus: int, trace: bool) -> dict:
    """Run one batch in a fresh interpreter and return its JSON result."""

    spawned_at = time.monotonic()
    command = [
        sys.executable,
        os.path.join(HERE, "batch.py"),
        "--workload", workload.name,
        "--corpus", str(corpus),
        "--spawned-at", repr(spawned_at),
        "--trace", "1" if trace else "0",
    ]
    # Its own session, so a timeout also stops the fleet workers it forked.
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BatchFailed(f"batch {workload.name}/{corpus} timed out") from error
    if process.returncode != 0:
        raise BatchFailed(
            f"batch {workload.name}/{corpus} exited {process.returncode}:\n" + stderr[-2000:]
        )
    result = json.loads(stdout.strip().splitlines()[-1])
    # Spawn to exit: what the batch adds to a run's length.
    result["batch_s"] = time.monotonic() - spawned_at
    return result


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

def check_batch(workload: Workload, expected: dict, batch: dict) -> List[str]:
    """Problems with one batch's outputs (empty when correct)."""

    where = f"{workload.name} corpus {batch['corpus']}"
    problems = []
    if workload.clean and (batch["reports"] or batch["failed"]):
        problems.append(
            f"{where}: clean workload filed {batch['reports']} with {batch['failed']} oracle errors"
        )
    if batch["reports"] != expected["reports"]:
        problems.append(f"{where}: reports {batch['reports']} != recorded {expected['reports']}")
    if batch["verdicts_sha"] != expected["verdicts_sha"]:
        problems.append(f"{where}: per-unit verdicts differ from the recording")
    if workload.reduce:
        triage = batch["triage"]
        if triage["reports"] != len(expected["reports"]):
            problems.append(f"{where}: triaged {triage['reports']} of {len(expected['reports'])} reports")
        if triage["mean_reduction"] < expected["mean_reduction"] - 1e-9:
            problems.append(
                f"{where}: mean reduction {triage['mean_reduction']:.4f} below recorded "
                f"{expected['mean_reduction']:.4f}"
            )
    elif batch["report_sha"] != expected["report_sha"]:
        problems.append(f"{where}: report bytes differ from the recording")
    return problems


def check_pair(workload: Workload, untraced: dict, traced: dict) -> List[str]:
    if (untraced["report_sha"], untraced["verdicts_sha"]) != (traced["report_sha"], traced["verdicts_sha"]):
        return [f"{workload.name} corpus {traced['corpus']}: traced reports differ from untraced"]
    return []


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def speed_factor(batch: dict) -> float:
    """Scales a batch's timings to the machine speed ``REFERENCE_S``.

    On a shared machine the same batch takes up to 1.5x longer in a slow
    phase, and phases last minutes, so no estimator over raw times within
    one run removes them.  The reference loop slows with the campaign: on
    ten seeds per workload, scaling cut the spread (interquartile range
    over median) of ``units_per_s`` from 0.20 to 0.07 on clean-hotpath,
    0.17 to 0.07 on seeded-triage and 0.08 to 0.06 on fleet-2.
    """

    return REFERENCE_S / batch["reference_s"]


def raw_units_per_s(batches: List[dict]) -> float:
    return sum(batch["units"] for batch in batches) / sum(batch["wall_s"] for batch in batches)


def end_to_end_metrics(batches: List[dict]) -> Dict[str, float]:
    """Throughput over the batches' summed wall times; pooled unit times.

    Every figure is a time the program really took (a batch's wall time,
    each unit's ``elapsed_s``, the set-up time) scaled by its batch's
    :func:`speed_factor`.
    """

    elapsed = [
        seconds * speed_factor(batch) for batch in batches for seconds in batch["unit_elapsed_s"].values()
    ]
    deciles = statistics.quantiles(elapsed, n=10, method="inclusive")
    return {
        "units_per_s": sum(batch["units"] for batch in batches)
        / sum(batch["wall_s"] * speed_factor(batch) for batch in batches),
        "unit_p50_ms": statistics.median(elapsed) * 1000.0,
        "unit_p90_ms": deciles[8] * 1000.0,
        "setup_s": statistics.median(batch["setup_s"] * speed_factor(batch) for batch in batches),
        "peak_rss_mb": statistics.median(batch["rss_mb"] for batch in batches),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(pairs: List[tuple]) -> Dict[str, float]:
    """Per-layer metrics summed over the traced batches of ``pairs``."""

    traced = [batch for _, batch in pairs]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        entries = [batch["layers"].get(layer, {}) for batch in traced]
        metrics[f"{layer}.s"] = sum(entry.get("self_s", 0.0) for entry in entries)
        metrics[f"{layer}.incl_s"] = sum(entry.get("incl_s", 0.0) for entry in entries)
        metrics[f"{layer}.calls"] = sum(entry.get("calls", 0) for entry in entries)
    for name in COUNTS:
        metrics[name] = sum(batch["counts"].get(name, 0) for batch in traced)

    counters: Dict[str, int] = {}
    for batch in traced:
        for key, value in batch["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def hit_rate(prefix: str) -> float:
        hits, misses = counters.get(f"{prefix}_hits", 0), counters.get(f"{prefix}_misses", 0)
        return _ratio(hits, hits + misses)

    wall = sum(batch["wall_s"] for batch in traced)
    unit_s = sum(sum(batch["unit_elapsed_s"].values()) + batch["triage"]["unit_s"] for batch in traced)
    jobs = traced[0]["jobs"]
    triage = [batch["triage"] for batch in traced]
    triaged = sum(entry["reports"] for entry in triage)
    oracle_calls = sum(entry["oracle_calls"] for entry in triage)
    fleet = traced[0]["jobs"] > 1 and counters.get("dist_leases_issued", 0) > 0
    metrics.update(
        {
            "compiler.prefix.hit_rate": hit_rate("prefix"),
            "validation.reparse.hit_rate": hit_rate("reparse"),
            "validation.interp.hit_rate": hit_rate("interp"),
            "smt.sat_invocations": counters.get("solver_sat_invocations", 0),
            "smt.checks": counters.get("solver_checks", 0),
            "smt.syntactic_equivalences": counters.get("solver_syntactic_equivalences", 0),
            "smt.bitblast.hit_rate": hit_rate("solver_bitblast"),
            "smt.intern_terms": max(batch["gauges"]["intern_terms"] for batch in traced),
            "smt.simplify_entries": max(batch["gauges"]["simplify_entries"] for batch in traced),
            "testgen.hit_rate": hit_rate("testgen"),
            "targets.replay.packets": counters.get("packets_replayed", 0),
            "targets.replay.sequences": counters.get("sequences_replayed", 0),
            "reduce.oracle_calls": oracle_calls,
            "reduce.kept_edits_per_call": _ratio(
                sum(entry["kept_edits"] for entry in triage), oracle_calls
            ),
            "reduce.reports_per_s": _ratio(triaged, sum(entry["wall_s"] for entry in triage)),
            "reduce.mean_reduction": _ratio(
                sum(entry["mean_reduction"] * entry["reports"] for entry in triage), triaged
            ),
            "engine.overhead_s": wall - unit_s / jobs,
            "engine.fleet.leases_issued": counters.get("dist_leases_issued", 0),
            "engine.fleet.leases_reclaimed": counters.get("dist_leases_reclaimed", 0),
            "engine.fleet.bytes_per_unit": _ratio(
                counters.get("dist_bytes_streamed", 0), counters.get("dist_outcomes_streamed", 0)
            ),
            "engine.fleet.worker_idle_share": (1.0 - unit_s / (jobs * wall)) if fleet else 0.0,
            "tracer.self_coverage": _ratio(
                sum(metrics[f"{layer}.s"] for layer in LAYERS), wall
            ),
            "tracer.overhead_share": 1.0 - _ratio(
                sum(batch["wall_s"] * speed_factor(batch) for batch, _ in pairs),
                sum(batch["wall_s"] * speed_factor(batch) for batch in traced),
            ),
        }
    )
    return metrics


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def git_commit() -> str:
    """The checked-out commit, read from ``.git`` at the root if present."""

    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(ROOT, ".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, workload: Workload, batches: List[dict]) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "batches": [
            [batch["corpus"], batch["trace"], round(batch["wall_s"], 4), round(batch["reference_s"], 5)]
            for batch in batches
        ],
        # Unscaled, for reading against a stopwatch.
        "raw_units_per_s": raw_units_per_s([batch for batch in batches if not batch["trace"]]),
        "unit_samples": sum(len(batch["unit_elapsed_s"]) for batch in batches if not batch["trace"]),
    }


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Campaign benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no sources under {ROOT}/src; run from a repository checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    pool = load_expected()[workload.pool_name]
    if pool["config"] != workload.fingerprint():
        print(f"error: expected.json was recorded for another {workload.pool_name} config", file=sys.stderr)
        return 2
    costs = {int(corpus): entry["cost_s"] for corpus, entry in pool["corpora"].items()}
    problems: List[str] = []
    pairs, batches = [], []
    start, step_s = time.monotonic(), 0.0
    try:
        for corpus in corpus_plan(workload, args.seed, costs, args.seconds):
            began = time.monotonic()
            if began - start + step_s > MAX_RUN_S:
                break
            if args.trace:
                pair = (run_batch(workload, corpus, False), run_batch(workload, corpus, True))
                pairs.append(pair)
                problems += check_pair(workload, *pair)
                batches += pair
            else:
                batches.append(run_batch(workload, corpus, False))
            step_s = time.monotonic() - began
    except BatchFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for batch in batches:
        problems += check_batch(workload, pool["corpora"][str(batch["corpus"])], batch)

    if args.trace:
        values = per_layer_metrics(pairs)
        units = metric_units("per_layer")
    else:
        values = end_to_end_metrics(batches)
        units = metric_units("end_to_end")
    record = provenance(args, workload, batches)
    if workload.distributed and args.trace:
        record["informational"] = sorted(
            name for name in units
            if name.endswith(PLACEMENT_SUFFIXES) or name.startswith(PLACEMENT_PREFIXES)
        )
    record["problems"] = problems
    print(json.dumps({"provenance": record}, sort_keys=True))
    attempted = sum(batch["units"] for batch in batches if not batch["trace"])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(batch["failed"] for batch in batches if not batch["trace"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    return 0 if not problems else 1


def metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[section]}


if __name__ == "__main__":
    sys.exit(main())
