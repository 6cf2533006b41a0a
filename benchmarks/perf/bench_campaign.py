#!/usr/bin/env python
"""Perf harness for the campaign pipeline (``make bench`` / ``make bench-scaling``).

Two workloads, both written into ``BENCH_campaign.json`` at the repository
root so every PR leaves a perf data point behind:

* **reference** (always): the clean 25-program, 3-platform campaign at
  seed 0, single-process.  It enables no defect, so ``meets_target``
  requires it to file no report and end no unit in an oracle error.
* **scaling** (``--scaling``): a larger campaign (default 200 programs,
  3 platforms) run at jobs = 1, 2, 4, 8 on the staged engine, recording
  the worker-scaling curve and verifying that every job count files the
  identical deduplicated bug set.  Job count 1 runs serially, every job
  count above 1 on a local worker fleet.  Wall-clock speedup is
  hardware-bound: the recorded ``cpu_count`` says how many cores the curve
  had to work with.
* **triage** (``--reduce`` / ``make bench-reduce``): the seeded reference
  campaign with the triage stage on, recording the per-report reduction
  ratio, round/attempt counts and wall time, plus the stage's total cost
  relative to the detection campaign.
* **hotpath** (``--hotpath`` / ``make bench-hotpath``): the scaling
  workload at ``jobs=1`` with cold caches, recording programs/sec (with
  ``cpu_count``), SAT invocations and conflicts, case-split equivalences,
  budget-exhausted queries, per-cache hit rates and garbage collections
  per generation, gated on the deterministic ones, plus a
  seeded jobs=1 vs jobs=4 byte-identical-reports check.
* **stateful** (``--stateful`` / ``make bench-stateful``): a seeded
  register-heavy campaign replayed as 3-packet sequences — sequences/sec,
  state-divergence findings, per-defect detection of the stateful seeded
  defects (the job fails when any goes undetected) and a ``jobs=2`` (a
  two-worker fleet) vs ``jobs=1`` byte-identity check.
* **coverage** (``--coverage`` / ``make bench-coverage``): swarm
  generation — pass/rule/feature/shape cell counts of static vs
  arm-rotation unseeded p4c corpora over three seeds (fails when the
  rotation lights fewer rule cells than the static config on a seed, or
  fewer in total than the bandit it replaced), and a scheduled-campaign
  byte-identity check across jobs=1 / jobs=2 / jobs=4.
* **distributed** (``--distributed`` / ``make bench-distributed``): the
  coordinator/worker service smoke — a 40-program, 3-platform campaign on
  clean localhost fleets of 1 and 2 workers (units/sec, and per-program
  cache misses that must equal the serial run's), then a fault pass with
  one of 2 workers killed mid-lease (leases reclaimed); every run must
  file reports byte-identical to ``jobs=1``.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_campaign.py
    PYTHONPATH=src python benchmarks/perf/bench_campaign.py --scaling
    PYTHONPATH=src python benchmarks/perf/bench_campaign.py --reduce
    PYTHONPATH=src python benchmarks/perf/bench_campaign.py --hotpath
    PYTHONPATH=src python benchmarks/perf/bench_campaign.py --scaling \
        --programs 200 --jobs-list 1,2,4,8

Profiling a campaign (the workflow this harness grew out of)::

    PYTHONPATH=src python -m cProfile -o /tmp/campaign.prof \
        benchmarks/perf/bench_campaign.py
    python -c "import pstats; pstats.Stats('/tmp/campaign.prof').sort_stats('cumtime').print_stats(25)"
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import smt  # noqa: E402
from repro.core.campaign import Campaign, CampaignConfig  # noqa: E402
from repro.core.engine import reset_worker_state  # noqa: E402

#: The reference workload: p4c plus the paper's two back ends; the
#: registry's later back ends are exercised by the ``backends_campaign``
#: block below.
PROGRAMS = 25
SEED = 0
PLATFORMS = ("p4c", "bmv2", "tofino")

#: The multi-backend workload (always recorded): one seeded campaign over
#: the three packet-tested back ends, one semantic defect per back end
#: plus the eBPF verifier crash classes.  The block proves the campaign
#: surface spans every registry entry and that the merge attributes each
#: back end's findings to its own defect.
BACKENDS_SEED = 3
BACKENDS_PROGRAMS = 20
BACKENDS_PLATFORMS = ("bmv2", "tofino", "ebpf")
BACKENDS_BUGS = (
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
    "ebpf_byte_order_swap",
    "ebpf_verifier_loop_crash",
    "ebpf_tail_call_limit_crash",
)

#: The scaling workload (≥ 200 programs amortises the fleet's start-up).
SCALING_PROGRAMS = 200
SCALING_JOBS = (1, 2, 4, 8)

#: The triage workload: the §7-style seeded campaign (findings on every
#: platform and from every technique) with the triage stage enabled.
REDUCE_SEED = 2020
REDUCE_BUGS = (
    "strength_reduction_negative_slice",
    "typecheck_shift_width_crash",
    "exit_ignores_copy_out",
    "constant_folding_no_mask",
    "simplify_control_flow_empty_if",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
    "tofino_exit_in_action_crash",
)
#: Acceptance floor: mean statement-count reduction over filed reports.
REDUCE_TARGET_RATIO = 0.5
#: SAT invocations the triage stage of the reduce workload may make
#: (``solver_sat_invocations`` summed from its triage units' counters,
#: caches reset before the detection run that precedes it): its count once
#: translation validation walked each snapshot pair with
#: ``find_divergence`` alone.  It was 144 while a batched equivalence probe
#: ran first and mostly re-solved pairs the walk then solved again; that
#: probe is gone, so nothing can send a batched check any more.
REDUCE_MAX_SAT_INVOCATIONS = 104

#: The validation-hot-path workload (``--hotpath`` / ``make bench-hotpath``):
#: the 200-program scaling campaign at ``jobs=1``, cold caches.  The gate is
#: deterministic: SAT invocations must stay below the ``before`` count, the
#: same workload on the staged engine at commit ``b225044`` (recorded as a
#: constant because that code path no longer exists).  Throughput is
#: recorded with the runner's ``cpu_count`` but not gated: seconds compare
#: only on one runner, parent against change (``perfbench/compare.py``).
HOTPATH_BASELINE = {
    "sat_invocations": 1259,
    "source": (
        "staged engine at commit b225044: per-platform prefix "
        "recompilation, per-pair sequential equivalence queries, zero "
        "reparse/interp cache hits"
    ),
}
#: CDCL conflicts the hot-path campaign may hit (``solver_sat_conflicts``):
#: its total once the equivalence layer settled queries by a case split
#: before SAT.  It was 5276 before, nearly all of it validation queries
#: the split now proves.  A count above it means the SAT search changed,
#: or queries that the split settles reach the solver again.  The same
#: campaign must also end with no budget-exhausted query.
HOTPATH_MAX_SAT_CONFLICTS = 10
#: Programs the pass manager may emit on the hot-path campaign
#: (``compiler_snapshot_emits``): one per pass that changed the program,
#: since passes became copy-on-write (an unchanged pass result is not
#: re-emitted) and the pass manager takes the input's source from
#: ``compile_prefix`` instead of emitting it again.  It was 3200 with
#: every pass result emitted, 16 per program, and 1188 with the input
#: emitted too.  A count above it means some pass returns a new object
#: for a program it did not change.
HOTPATH_MAX_SNAPSHOT_EMITS = 988
#: Type checks the hot-path campaign may run (``typecheck_runs``, every
#: ``check_program`` call): the front end's two checking passes per
#: compilation, plus one per distinct source outside the compiler under
#: test, since those checks are memoised by source
#: (``repro.p4.typecheck.checked_types``).  It was 2588, 12.9 per
#: program, when the interpreters, the back-end executables and the packet
#: layout each checked the program again.  A count above it means a
#: consumer checks a source it could take from the memo.
HOTPATH_MAX_TYPECHECKS = 1588
#: Size of the seeded campaign used for the jobs=1 vs jobs=4 byte-identical
#: report check (shared-prefix validation must not perturb determinism).
HOTPATH_DETERMINISM_PROGRAMS = 25
#: Full garbage collections the hot-path campaign may run.  Each one walks
#: the whole long-lived heap; at CPython's default gen0 threshold this
#: campaign ran 27 of them (Python 3.11), under the engine's
#: ``GC_GEN0_THRESHOLD`` one.  The count repeats exactly for one interpreter.
HOTPATH_MAX_FULL_COLLECTIONS = 2

#: Committed per-defect detection expectations for the reference matrix
#: (seed 0, 20 programs per defect).  The CI gate fails when a defect the
#: baseline records as detected stops being detected.
DETECTION_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "detection_baseline.json",
)

def _run_campaign(programs: int, jobs: int, seed: int = SEED) -> tuple:
    config = CampaignConfig(
        programs=programs,
        seed=seed,
        platforms=PLATFORMS,
        jobs=jobs,
    )
    campaign = Campaign(config)
    start = time.perf_counter()
    stats = campaign.run()
    elapsed = time.perf_counter() - start
    return stats, elapsed


def run_reference() -> dict:
    """Run the reference campaign in-process and return measurements."""

    stats, elapsed = _run_campaign(PROGRAMS, jobs=1)
    return {
        "elapsed_s": round(elapsed, 3),
        "programs": stats.programs_generated,
        "programs_rejected": stats.programs_rejected,
        "crash_findings": stats.crash_findings,
        "semantic_findings": stats.semantic_findings,
        "oracle_errors": stats.oracle_errors,
        "reports": len(stats.tracker.reports),
        "intern_table_terms": smt.intern_table_size(),
        "simplify_cache_entries": smt.simplify_cache_size(),
        #: Per-unit counter differences summed by the merge: the campaign's
        #: solver, cache and replay totals at any job count.
        "merged_worker_counters": stats.counters,
    }


def run_backends() -> dict:
    """Record the three-back-end seeded campaign (bmv2 + tofino + ebpf).

    The generator enables the narrowing-cast idiom and raises the
    many-tables burst so the eBPF defect triggers are reachable (the same
    knobs the detection matrix steers; see ``MATRIX_STEERING`` in
    ``repro.core.schedule``).
    """

    from repro.compiler.bugs import BUG_CATALOG
    from repro.core.generator import GeneratorConfig

    config = CampaignConfig(
        programs=BACKENDS_PROGRAMS,
        seed=BACKENDS_SEED,
        generator=GeneratorConfig(
            seed=BACKENDS_SEED, p_narrowing_cast=0.4, p_many_tables=0.3
        ),
        platforms=BACKENDS_PLATFORMS,
        enabled_bugs=BACKENDS_BUGS,
    )
    start = time.perf_counter()
    stats = Campaign(config).run()
    elapsed = time.perf_counter() - start
    identifiers = sorted(report.identifier for report in stats.tracker.reports)
    expected = sorted(
        f"{BUG_CATALOG[bug].platform}:{bug}" for bug in BACKENDS_BUGS
    )
    return {
        "programs": BACKENDS_PROGRAMS,
        "seed": BACKENDS_SEED,
        "platforms": list(BACKENDS_PLATFORMS),
        "enabled_bugs": list(BACKENDS_BUGS),
        "elapsed_s": round(elapsed, 3),
        "programs_rejected": stats.programs_rejected,
        "crash_findings": stats.crash_findings,
        "semantic_findings": stats.semantic_findings,
        "reports": identifiers,
        "all_defects_reported": identifiers == expected,
    }


def run_scaling(programs: int, jobs_list: tuple) -> dict:
    """Record the worker-scaling curve for a larger campaign.

    One cold-cache campaign per job count: serial at 1, a local fleet of
    that many workers above 1.  The baseline row is the first run (serial
    unless ``--jobs-list`` starts above 1); speedups are relative to it.
    """

    curve = []
    bug_sets = []
    baseline_elapsed = None
    for jobs in jobs_list:
        executor = "fleet" if jobs > 1 else "serial"
        # Forked fleet workers inherit this process's caches: without a
        # reset, later runs would ride the first run's warm caches.
        reset_worker_state()
        stats, elapsed = _run_campaign(programs, jobs=jobs)
        if baseline_elapsed is None:
            baseline_elapsed = elapsed
        bug_sets.append(sorted(report.identifier for report in stats.tracker.reports))
        curve.append(
            {
                "executor": executor,
                "jobs": jobs,
                "elapsed_s": round(elapsed, 3),
                "speedup_vs_baseline": round(baseline_elapsed / elapsed, 2)
                if elapsed
                else float("inf"),
                "distinct_bugs": len(stats.tracker),
                "units": stats.units_total,
                "merged_worker_counters": stats.counters,
            }
        )
        print(
            f"  {executor} jobs={jobs}: {elapsed:.1f}s, "
            f"{curve[-1]['speedup_vs_baseline']}x vs the first run, "
            f"{len(stats.tracker)} distinct bugs",
            flush=True,
        )
    cores = os.cpu_count() or 1
    payload = {
        "programs": programs,
        "platforms": list(PLATFORMS),
        "seed": SEED,
        "cpu_count": cores,
        "baseline_jobs": jobs_list[0],
        "deterministic": all(bugs == bug_sets[0] for bugs in bug_sets),
        "distinct_bug_set": bug_sets[0],
        "curve": curve,
    }
    if cores < max(jobs_list):
        payload["note"] = (
            f"wall-clock scaling is bounded by the {cores} CPU core(s) visible "
            "to this runner; the fleet shards whole programs across its "
            "workers, so on an N-core machine the curve tracks N up to the "
            "job count (determinism is asserted above regardless)"
        )
    return payload


def _cache_report(counters: dict) -> dict:
    """Hit/miss/rate triples for every campaign-lifetime cache."""

    pairs = {
        "lexer": ("lexer_hits", "lexer_misses"),
        "statements": ("statements_hits", "statements_misses"),
        "reparse": ("reparse_hits", "reparse_misses"),
        "typecheck": ("typecheck_hits", "typecheck_misses"),
        "interp": ("interp_hits", "interp_misses"),
        "testgen": ("testgen_hits", "testgen_misses"),
        "prefix": ("prefix_hits", "prefix_misses"),
        "bitblast": ("solver_bitblast_hits", "solver_bitblast_misses"),
    }
    report = {}
    for name, (hit_key, miss_key) in pairs.items():
        hits = counters.get(hit_key, 0)
        misses = counters.get(miss_key, 0)
        total = hits + misses
        report[name] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }
    return report


def run_hotpath(programs: int) -> dict:
    """Measure the validation hot path: throughput, solver load, cache yield.

    One cold-start ``jobs=1`` campaign gives the deterministic counters the
    CI gate diffs (SAT invocations and conflicts, budget-exhausted queries,
    snapshot emits, type checks, per-cache hit rates, full garbage
    collections); a smaller seeded campaign then runs at ``jobs=1`` and
    ``jobs=4`` and the two report lists must serialize byte-identically —
    shared-prefix validation and the process-wide memos must never leak
    scheduling into the findings.
    """

    reset_worker_state()
    stats, elapsed = _run_campaign(programs, jobs=1)
    counters = stats.counters
    programs_per_sec = programs / elapsed if elapsed else float("inf")
    caches = _cache_report(counters)
    sat_invocations = counters.get("solver_sat_invocations", 0)
    sat_conflicts = counters.get("solver_sat_conflicts", 0)
    budget_exhausted = counters.get("solver_budget_exhausted", 0)
    snapshot_emits = counters.get("compiler_snapshot_emits", 0)
    typecheck_runs = counters.get("typecheck_runs", 0)
    gc_collections = {
        f"gen{generation}": counters.get(f"gc_gen{generation}_collections", 0)
        for generation in range(3)
    }

    def seeded_reports(jobs: int) -> str:
        reset_worker_state()
        config = CampaignConfig(
            programs=HOTPATH_DETERMINISM_PROGRAMS,
            seed=REDUCE_SEED,
            enabled_bugs=REDUCE_BUGS,
            platforms=PLATFORMS,
            jobs=jobs,
        )
        run = Campaign(config).run()
        reports = sorted(run.tracker.reports, key=lambda report: report.identifier)
        return json.dumps([report.to_dict() for report in reports], sort_keys=True)

    byte_identical = seeded_reports(jobs=1) == seeded_reports(jobs=4)

    meets_target = (
        sat_invocations < HOTPATH_BASELINE["sat_invocations"]
        and sat_conflicts <= HOTPATH_MAX_SAT_CONFLICTS
        and budget_exhausted == 0
        and snapshot_emits <= HOTPATH_MAX_SNAPSHOT_EMITS
        and typecheck_runs <= HOTPATH_MAX_TYPECHECKS
        and caches["lexer"]["hits"] > 0
        and caches["statements"]["hits"] > 0
        and caches["reparse"]["hits"] > 0
        and caches["interp"]["hits"] > 0
        and caches["bitblast"]["hits"] > 0
        and gc_collections["gen2"] <= HOTPATH_MAX_FULL_COLLECTIONS
        and byte_identical
    )
    return {
        "programs": programs,
        "platforms": list(PLATFORMS),
        "seed": SEED,
        "jobs": 1,
        "cpu_count": os.cpu_count() or 1,
        "before": dict(HOTPATH_BASELINE),
        "elapsed_s": round(elapsed, 3),
        "programs_per_sec": round(programs_per_sec, 2),
        "sat_invocations": sat_invocations,
        "sat_conflicts": sat_conflicts,
        "max_sat_conflicts": HOTPATH_MAX_SAT_CONFLICTS,
        "equivalence_cache_hits": counters.get("solver_equivalence_cache_hits", 0),
        "split_equivalences": counters.get("solver_split_equivalences", 0),
        "budget_exhausted": budget_exhausted,
        "snapshot_emits": snapshot_emits,
        "max_snapshot_emits": HOTPATH_MAX_SNAPSHOT_EMITS,
        "typecheck_runs": typecheck_runs,
        "max_typecheck_runs": HOTPATH_MAX_TYPECHECKS,
        "caches": caches,
        "gc_collections": gc_collections,
        "max_full_collections": HOTPATH_MAX_FULL_COLLECTIONS,
        "reports_byte_identical_jobs1_vs_jobs4": byte_identical,
        "meets_target": meets_target,
    }


def run_reduce(programs: int = PROGRAMS) -> dict:
    """Record reduction ratio and wall time per filed report.

    Two runs against one artifact store: the first performs detection only
    (and persists its unit outcomes), the second reuses every unit and
    runs just the triage stage — so ``triage_elapsed_s`` measures the
    reductions themselves, not another detection campaign.
    """

    import tempfile

    from repro.core.engine import ArtifactStore, triage_key
    from repro.core.generator import GeneratorConfig

    reset_worker_state()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifacts.jsonl")
        base = dict(
            programs=programs,
            seed=REDUCE_SEED,
            enabled_bugs=REDUCE_BUGS,
            platforms=PLATFORMS,
            artifact_path=path,
        )
        start = time.perf_counter()
        Campaign(CampaignConfig(**base)).run()
        detection_s = time.perf_counter() - start

        start = time.perf_counter()
        config = CampaignConfig(**base, reduce=True)
        stats = Campaign(config).run()
        triage_s = time.perf_counter() - start

        key = triage_key(
            GeneratorConfig(seed=REDUCE_SEED),
            REDUCE_BUGS,
            PLATFORMS,
            config.max_tests_per_program,
            config.reduce_rounds,
            sequence_length=config.sequence_length,
        )
        outcomes = ArtifactStore(path).load_triage(key)
    if len(outcomes) != stats.triage_total:
        raise RuntimeError(
            f"triage store returned {len(outcomes)} outcomes for "
            f"{stats.triage_total} reports — key derivation out of sync"
        )

    per_report = [
        {
            "identifier": outcome.identifier,
            "reduction_ratio": round(outcome.reduction_ratio, 4),
            "original_statements": outcome.original_size,
            "reduced_statements": outcome.reduced_size,
            "rounds": outcome.rounds,
            "oracle_calls": outcome.attempts,
            "elapsed_s": round(outcome.elapsed_s, 3),
        }
        for outcome in sorted(outcomes.values(), key=lambda entry: entry.identifier)
    ]
    quality = _reduction_quality(list(outcomes.values()))
    mean_ratio = stats.mean_reduction_ratio()
    localized = [
        report.localized_pass
        for report in stats.tracker.reports
        if report.kind.value == "crash"
    ]
    # Every unit is reused from the store, so the counters are the triage
    # units' own.
    sat_invocations = stats.counters.get("solver_sat_invocations", 0)
    return {
        "programs": programs,
        "seed": REDUCE_SEED,
        "enabled_bugs": list(REDUCE_BUGS),
        "detection_elapsed_s": round(detection_s, 3),
        "triage_elapsed_s": round(triage_s, 3),
        "reports": per_report,
        "mean_reduction_ratio": round(mean_ratio, 4),
        "crash_bugs_localized": all(localized) and bool(localized),
        "target_mean_reduction": REDUCE_TARGET_RATIO,
        "sat_invocations": sat_invocations,
        "max_sat_invocations": REDUCE_MAX_SAT_INVOCATIONS,
        "sat_conflicts": stats.counters.get("solver_sat_conflicts", 0),
        "meets_target": (
            mean_ratio >= REDUCE_TARGET_RATIO
            and sat_invocations <= REDUCE_MAX_SAT_INVOCATIONS
        ),
        "reduction_quality": quality,
    }


def _reduction_quality(outcomes: list) -> dict:
    """Corpus-level reducer-quality metrics (ROADMAP open item).

    Two views over a campaign's triage outcomes: the distribution of
    reduced sizes across the (per-seed-derived) trigger programs, and the
    oracle-call budget vs. marginal shrink of every transformation class --
    the signal that shows when a reducer change trades oracle budget for no
    extra shrinkage.
    """

    sizes = sorted(outcome.reduced_size for outcome in outcomes)
    if sizes:
        distribution = {
            "count": len(sizes),
            "min": sizes[0],
            "median": sizes[len(sizes) // 2],
            "max": sizes[-1],
            "mean": round(sum(sizes) / len(sizes), 2),
        }
    else:
        distribution = {"count": 0, "min": 0, "median": 0, "max": 0, "mean": 0.0}

    per_class: dict = {}
    for outcome in outcomes:
        for name, entry in outcome.transform_stats.items():
            bucket = per_class.setdefault(
                name, {"oracle_calls": 0, "kept_edits": 0, "statements_removed": 0}
            )
            for key in bucket:
                bucket[key] += entry.get(key, 0)
    for bucket in per_class.values():
        calls = bucket["oracle_calls"]
        bucket["statements_removed_per_oracle_call"] = (
            round(bucket["statements_removed"] / calls, 4) if calls else 0.0
        )
    return {
        "reduced_size_distribution": distribution,
        "per_transform_class": dict(sorted(per_class.items())),
    }


#: The stateful workload (``--stateful`` / ``make bench-stateful``): a
#: register-heavy seeded campaign replayed as 3-packet sequences.  The
#: platform list pairs the open toolchain (where the three stateful
#: mid-end defects are caught by state-aware translation validation) with
#: the two back ends whose executables carry live switch state — the eBPF
#: one hosts the flush-truncation defect only multi-packet sequences can
#: expose.
STATEFUL_SEED = 7
STATEFUL_PROGRAMS = 20
STATEFUL_PLATFORMS = ("p4c", "bmv2", "ebpf")
STATEFUL_SEQUENCE_LENGTH = 3
STATEFUL_BUGS = (
    "stateful_rmw_lost_update",
    "stateful_read_write_reorder",
    "stateful_spill_width_narrow",
    "ebpf_register_write_drops_high_byte",
)

#: A write-only accumulator: no packet ever reads the register back, so
#: every per-packet output is correct under any register defect — only the
#: final ``$state.*`` comparison can catch the eBPF flush truncation.  The
#: probe proves the state oracle does work the packet oracle cannot.
STATEFUL_PROBE_SOURCE = """
header Hdr_t { bit<8> a; bit<16> c; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    register<bit<16>>(2) acc;
    apply {
        bit<16> prev;
        acc.read(prev, 32w0);
        acc.write(32w0, (prev + 16w300));
        hdr.h.a = (hdr.h.a ^ 8w1);
    }
}
"""


def _state_divergence_probe() -> str:
    """Run the write-only probe against the seeded eBPF back end.

    Returns the oracle's mismatch message (expected to name a final-state
    divergence; empty means the state oracle missed the defect).
    """

    from repro.core.reduce.oracles import platform_verdict
    from repro.p4 import parse_program

    _, finding = platform_verdict(
        parse_program(STATEFUL_PROBE_SOURCE),
        STATEFUL_PROBE_SOURCE,
        "ebpf",
        {"ebpf_register_write_drops_high_byte"},
        2,
        STATEFUL_SEQUENCE_LENGTH,
    )
    return finding.description if finding is not None else ""


def run_stateful() -> dict:
    """Record the multi-packet stateful campaign: throughput + detection.

    Three checks gate ``meets_target``:

    * every one of the new stateful seeded defects is detected in its own
      single-defect campaign (attribution, not just "something diverged"),
    * the write-only probe is caught by the final ``$state.*`` comparison
      — a state-divergence finding no payload diff could produce — proving
      the state oracle does work the packet oracle cannot, and
    * a ``jobs=2`` run (a two-worker fleet) files reports byte-identical
      to ``jobs=1``.
    """

    from repro.core.generator import GeneratorConfig

    def config(**overrides) -> CampaignConfig:
        base = dict(
            programs=STATEFUL_PROGRAMS,
            seed=STATEFUL_SEED,
            enabled_bugs=STATEFUL_BUGS,
            generator=GeneratorConfig(seed=STATEFUL_SEED, p_register=0.9),
            platforms=STATEFUL_PLATFORMS,
            sequence_length=STATEFUL_SEQUENCE_LENGTH,
        )
        base.update(overrides)
        return CampaignConfig(**base)

    def report_blob(stats) -> str:
        reports = sorted(stats.tracker.reports, key=lambda report: report.identifier)
        return json.dumps([report.to_dict() for report in reports], sort_keys=True)

    reset_worker_state()
    start = time.perf_counter()
    serial = Campaign(config()).run()
    elapsed = time.perf_counter() - start
    sequences = serial.counters.get("sequences_replayed", 0)
    packets = serial.counters.get("packets_replayed", 0)

    probe_message = _state_divergence_probe()
    probe_caught = "final state diverged" in probe_message
    state_divergences = sum(
        1
        for report in serial.tracker.reports
        if "final state diverged" in report.description
    )

    # Per-defect attribution: one single-defect campaign per new defect.
    records = Campaign(config()).run_detection_matrix(
        bug_ids=list(STATEFUL_BUGS), programs_per_bug=STATEFUL_PROGRAMS
    )
    detection = {
        record.bug.bug_id: {
            "detected": record.detected,
            "technique": record.technique,
            "programs_tried": record.programs_tried,
        }
        for record in records
    }
    all_detected = all(entry["detected"] for entry in detection.values())

    reset_worker_state()
    fleet = Campaign(config(jobs=2)).run()
    byte_identical = report_blob(fleet) == report_blob(serial)

    meets_target = all_detected and probe_caught and byte_identical
    return {
        "programs": STATEFUL_PROGRAMS,
        "seed": STATEFUL_SEED,
        "platforms": list(STATEFUL_PLATFORMS),
        "sequence_length": STATEFUL_SEQUENCE_LENGTH,
        "enabled_bugs": list(STATEFUL_BUGS),
        "elapsed_s": round(elapsed, 3),
        "sequences_replayed": sequences,
        "packets_replayed": packets,
        "sequences_per_sec": round(sequences / elapsed, 2) if elapsed else 0.0,
        "reports": sorted(report.identifier for report in serial.tracker.reports),
        "state_divergence_findings": state_divergences,
        "state_probe_caught": probe_caught,
        "state_probe_message": probe_message,
        "detection": detection,
        "all_stateful_defects_detected": all_detected,
        "reports_byte_identical_distributed2_vs_jobs1": byte_identical,
        "meets_target": meets_target,
    }


#: The distributed smoke workload (``--distributed`` / ``make
#: bench-distributed``): the reference generator at seed 0, 40 programs x
#: 3 platforms, run once serially (the reference), then on clean localhost
#: fleets of each size in ``DISTRIBUTED_WORKERS`` (the throughput curve),
#: then once more on ``DISTRIBUTED_FAULT_WORKERS`` workers with one killed
#: mid-lease (``os._exit`` after 10 units), so the recorded
#: ``leases_reclaimed`` proves the reclaim/merge path.
DISTRIBUTED_PROGRAMS = 40
DISTRIBUTED_WORKERS = (1, 2)
DISTRIBUTED_FAULT_WORKERS = 2
DISTRIBUTED_FAIL_AFTER_UNITS = 10
#: Miss counters of the caches a program's platform units share.  A fleet
#: that keeps each program on one worker misses them exactly as often as
#: the serial run; a program split across workers misses them twice.
PROGRAM_CACHE_MISSES = (
    "prefix_misses",
    "reparse_misses",
    "interp_misses",
    "testgen_misses",
)


def run_distributed(programs: int = DISTRIBUTED_PROGRAMS) -> dict:
    """Record the coordinator/worker smoke: throughput, placement, reclaim.

    ``meets_target`` requires every run, the fault pass included, to file
    reports byte-identical to ``jobs=1``; every clean fleet's per-program
    cache misses to equal the serial run's; and the fault pass to reclaim
    the killed worker's lease.  All runs start with cold caches.
    """

    from repro.core.engine import CampaignEngine, CampaignSpec, DistributedExecutor
    from repro.core.generator import GeneratorConfig

    spec = CampaignSpec(
        programs=programs,
        generator=GeneratorConfig(seed=SEED),
        platforms=PLATFORMS,
    )

    def run(executor=None) -> tuple:
        reset_worker_state()
        start = time.perf_counter()
        stats = CampaignEngine(spec, executor=executor).run()
        return stats, time.perf_counter() - start

    def reports(stats) -> str:
        return json.dumps(
            [report.to_dict() for report in stats.tracker.reports], sort_keys=True
        )

    def misses(stats) -> dict:
        return {key: stats.counters.get(key, 0) for key in PROGRAM_CACHE_MISSES}

    def fleet_point(workers: int, executor) -> dict:
        stats, elapsed = run(executor)
        counters = stats.counters
        return {
            "workers": workers,
            "elapsed_s": round(elapsed, 3),
            "units_per_sec": round(stats.units_total / elapsed, 2),
            "leases_issued": counters.get("dist_leases_issued", 0),
            "leases_reclaimed": counters.get("dist_leases_reclaimed", 0),
            "duplicates_discarded": counters.get("dist_duplicates_discarded", 0),
            "bytes_streamed": counters.get("dist_bytes_streamed", 0),
            "misses": misses(stats),
            "reports_byte_identical_vs_jobs1": reports(stats) == serial_reports,
        }

    serial, serial_elapsed = run()
    serial_reports = reports(serial)
    curve = [
        fleet_point(workers, DistributedExecutor(workers))
        for workers in DISTRIBUTED_WORKERS
    ]
    for point in curve:
        point["misses_match_serial"] = point["misses"] == misses(serial)
    # The fault pass's misses are informational: a reclaimed lease's units
    # run twice.
    fault = fleet_point(
        DISTRIBUTED_FAULT_WORKERS,
        DistributedExecutor(
            DISTRIBUTED_FAULT_WORKERS,
            lease_ttl_s=5.0,
            heartbeat_s=0.5,
            fail_after={0: DISTRIBUTED_FAIL_AFTER_UNITS},
        ),
    )
    fault["killed_after_units"] = DISTRIBUTED_FAIL_AFTER_UNITS

    deterministic = all(
        point["reports_byte_identical_vs_jobs1"] for point in curve + [fault]
    )
    placement = all(point["misses_match_serial"] for point in curve)
    return {
        "programs": programs,
        "platforms": list(PLATFORMS),
        "seed": SEED,
        "units": serial.units_total,
        "cpu_count": os.cpu_count() or 1,
        "serial": {
            "elapsed_s": round(serial_elapsed, 3),
            "units_per_sec": round(serial.units_total / serial_elapsed, 2),
            "misses": misses(serial),
        },
        "curve": curve,
        "fault": fault,
        "deterministic": deterministic,
        "placement_matches_serial": placement,
        "meets_target": deterministic and placement and fault["leases_reclaimed"] >= 1,
    }


#: The coverage workload (``--coverage`` / ``make bench-coverage``).  Per
#: seed, one static and one scheduled (fixed arm rotation) unseeded p4c
#: corpus, cold caches: the rotation must light at least as many rule
#: cells as the static config on every seed.
COVERAGE_SEEDS = (0, 1, 2)
COVERAGE_CORPUS_PROGRAMS = 80
COVERAGE_CORPUS_ROUNDS = 40
#: Rule cells the coverage-feedback bandit lit on the same three scheduled
#: corpora (seeds 0-2: 22 + 20 + 23), measured at commit 07e33d4, the last
#: commit before the arm rotation replaced the bandit.  The rotation's
#: total must not fall below it.
BANDIT_RULE_CELLS_TOTAL = 65
#: The cross-executor determinism check: a seeded scheduled campaign.
COVERAGE_PROGRAMS = 12
COVERAGE_ROUNDS = 4


def run_coverage() -> dict:
    """Record the swarm-generation section (``--coverage``).

    Two sub-experiments, both gating ``meets_target``:

    * **rule coverage on unseeded corpora**: per seed in
      ``COVERAGE_SEEDS``, one static and one ``COVERAGE_CORPUS_ROUNDS``-round
      scheduled p4c campaign of ``COVERAGE_CORPUS_PROGRAMS`` programs.  The
      scheduled corpus must light at least as many rule cells as the
      static one on every seed, and ``BANDIT_RULE_CELLS_TOTAL`` or more
      over all seeds.
    * **scheduled determinism**: a seeded scheduled campaign at jobs=1,
      jobs=2 and jobs=4 must file byte-identical reports (including the v4
      knob-arm provenance) and identical merged coverage counters.
    """

    # 1. Distinct coverage cells: static vs scheduled unseeded corpora.
    def unseeded_cells(seed: int, rounds: int) -> dict:
        reset_worker_state()
        stats = Campaign(
            CampaignConfig(
                programs=COVERAGE_CORPUS_PROGRAMS,
                seed=seed,
                platforms=("p4c",),
                schedule_rounds=rounds,
            )
        ).run()
        coverage = stats.coverage()
        return {
            prefix[:-1] + "_cells": sum(
                1 for cell in coverage if cell.startswith(prefix)
            )
            for prefix in ("pass:", "rule:", "feature:", "shape:")
        }

    coverage_cells = {
        str(seed): {
            "static": unseeded_cells(seed, 0),
            "scheduled": unseeded_cells(seed, COVERAGE_CORPUS_ROUNDS),
        }
        for seed in COVERAGE_SEEDS
    }
    scheduled_rules = sum(
        cells["scheduled"]["rule_cells"] for cells in coverage_cells.values()
    )
    at_least_static = all(
        cells["scheduled"]["rule_cells"] >= cells["static"]["rule_cells"]
        for cells in coverage_cells.values()
    )

    # 2. Scheduled-campaign determinism across executors.
    def scheduled_run(**overrides):
        reset_worker_state()
        base = dict(
            programs=COVERAGE_PROGRAMS,
            seed=REDUCE_SEED,
            enabled_bugs=REDUCE_BUGS,
            platforms=PLATFORMS,
            schedule_rounds=COVERAGE_ROUNDS,
        )
        base.update(overrides)
        return Campaign(CampaignConfig(**base)).run()

    def report_blob(stats) -> str:
        reports = sorted(stats.tracker.reports, key=lambda report: report.identifier)
        return json.dumps([report.to_dict() for report in reports], sort_keys=True)

    serial = scheduled_run(jobs=1)
    fleet2 = scheduled_run(jobs=2)
    fleet4 = scheduled_run(jobs=4)
    byte_identical = report_blob(serial) == report_blob(fleet2) == report_blob(fleet4)
    coverage_identical = serial.coverage() == fleet2.coverage() == fleet4.coverage()
    provenance = sorted(
        (report.identifier, report.knob_arm)
        for report in serial.tracker.reports
        if report.knob_arm
    )

    meets_target = (
        at_least_static
        and scheduled_rules >= BANDIT_RULE_CELLS_TOTAL
        and byte_identical
        and coverage_identical
    )
    return {
        "corpus_programs": COVERAGE_CORPUS_PROGRAMS,
        "corpus_schedule_rounds": COVERAGE_CORPUS_ROUNDS,
        "corpus_platforms": ["p4c"],
        "coverage_cells": coverage_cells,
        "scheduled_rule_cells_at_least_static": at_least_static,
        "scheduled_rule_cells_total": scheduled_rules,
        "bandit_rule_cells_total": BANDIT_RULE_CELLS_TOTAL,
        "programs": COVERAGE_PROGRAMS,
        "schedule_rounds": COVERAGE_ROUNDS,
        "platforms": list(PLATFORMS),
        "scheduled_reports_byte_identical_jobs1_jobs4_distributed2": byte_identical,
        "scheduled_coverage_identical_across_executors": coverage_identical,
        "report_knob_arms": provenance,
        "meets_target": meets_target,
    }


def run_matrix() -> dict:
    """Run the per-defect detection matrix and diff it against the baseline.

    The matrix is the reproduction's Table 2/3 signal: one single-defect
    campaign per catalog entry, early-exiting on the first detection.  A
    defect the committed baseline records as detected but this run misses
    is a regression -- the campaign surface shrank -- and fails the job.
    Newly-detected defects are reported so the baseline can be refreshed.
    """

    records = Campaign(CampaignConfig(seed=SEED)).run_detection_matrix()
    results = {
        record.bug.bug_id: {
            "detected": record.detected,
            "technique": record.technique,
            "programs_tried": record.programs_tried,
        }
        for record in records
    }
    baseline = {}
    if os.path.exists(DETECTION_BASELINE_PATH):
        with open(DETECTION_BASELINE_PATH) as handle:
            baseline = json.load(handle)
    lost = sorted(
        bug_id
        for bug_id, entry in baseline.items()
        if entry.get("detected") and not results.get(bug_id, {}).get("detected")
    )
    gained = sorted(
        bug_id
        for bug_id, entry in results.items()
        if entry["detected"] and not baseline.get(bug_id, {}).get("detected", False)
    )
    return {
        "baseline": os.path.relpath(DETECTION_BASELINE_PATH, _ROOT),
        "results": results,
        "lost_detections": lost,
        "new_detections": gained,
        "regressed": bool(lost),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="campaign perf harness")
    parser.add_argument("--scaling", action="store_true",
                        help="also record the worker-scaling curve")
    parser.add_argument("--reduce", action="store_true",
                        help="also record per-report reduction ratio + wall time")
    parser.add_argument("--coverage", action="store_true",
                        help="record the swarm-generation section: rule cells "
                             "of static vs arm-rotation unseeded corpora, and "
                             "the scheduled-campaign byte-identity check "
                             "across executors")
    parser.add_argument("--matrix", action="store_true",
                        help="run the per-defect detection matrix and fail on "
                             "detections lost vs. benchmarks/detection_baseline.json")
    parser.add_argument("--hotpath", action="store_true",
                        help="record the validation hot-path section: jobs=1 "
                             "throughput (not gated), SAT invocations, "
                             "snapshot emits, per-cache hit rates, full "
                             "garbage collections "
                             "and the jobs=1 vs jobs=4 determinism check")
    parser.add_argument("--distributed", action="store_true",
                        help="record the coordinator/worker smoke: units/sec "
                             "and per-program cache misses per clean fleet "
                             "size, leases reclaimed under a worker kill, and "
                             "the byte-identity check vs jobs=1")
    parser.add_argument("--stateful", action="store_true",
                        help="record the multi-packet stateful campaign: "
                             "sequences/sec, state-divergence findings, "
                             "per-defect detection of the stateful seeded "
                             "defects, and the jobs=2 byte-identity check")
    parser.add_argument("--programs", type=int, default=SCALING_PROGRAMS,
                        help="campaign size for the scaling curve")
    parser.add_argument("--jobs-list", default=",".join(map(str, SCALING_JOBS)),
                        help="comma-separated job counts (default 1,2,4,8)")
    args = parser.parse_args(argv)

    out_path = os.path.join(_ROOT, "BENCH_campaign.json")
    payload = {}
    if os.path.exists(out_path):
        # Preserve the other workload's latest numbers when only one is run.
        try:
            with open(out_path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {}

    after = run_reference()
    backends = run_backends()
    payload.update(
        {
            "benchmark": f"campaign_{PROGRAMS}programs_{len(PLATFORMS)}platforms_seed{SEED}",
            "after": after,
            # The reference campaign enables no defect: a report or an
            # oracle error on it is a false alarm or an oracle failure.
            "meets_target": after["reports"] == 0 and after["oracle_errors"] == 0,
            "backends_campaign": backends,
        }
    )

    if args.scaling:
        jobs_list = tuple(
            int(item) for item in args.jobs_list.split(",") if item.strip()
        )
        if not jobs_list:
            parser.error("--jobs-list must name at least one job count")
        print(f"scaling curve: {args.programs} programs x {jobs_list} jobs", flush=True)
        payload["scaling"] = run_scaling(args.programs, jobs_list)

    if args.hotpath:
        print(f"hotpath: {args.programs} programs x {len(PLATFORMS)} platforms, "
              "jobs=1, cold caches", flush=True)
        payload["hotpath"] = run_hotpath(args.programs)

    if args.reduce:
        print(f"triage: {PROGRAMS} programs x {len(REDUCE_BUGS)} seeded defects",
              flush=True)
        payload["triage"] = run_reduce()

    if args.distributed:
        print(f"distributed smoke: {DISTRIBUTED_PROGRAMS} programs x "
              f"{len(PLATFORMS)} platforms, clean workers {DISTRIBUTED_WORKERS}, "
              f"fault pass on {DISTRIBUTED_FAULT_WORKERS}", flush=True)
        payload["distributed"] = run_distributed()

    if args.stateful:
        print(f"stateful: {STATEFUL_PROGRAMS} programs x "
              f"{len(STATEFUL_PLATFORMS)} platforms, "
              f"{STATEFUL_SEQUENCE_LENGTH}-packet sequences", flush=True)
        payload["stateful"] = run_stateful()

    if args.coverage:
        print(f"coverage: static vs {COVERAGE_CORPUS_ROUNDS}-round corpora of "
              f"{COVERAGE_CORPUS_PROGRAMS} p4c programs (seeds {COVERAGE_SEEDS}) "
              "+ scheduled determinism", flush=True)
        payload["coverage"] = run_coverage()

    if args.matrix:
        print("detection matrix: one single-defect campaign per catalog entry",
              flush=True)
        payload["detection_matrix"] = run_matrix()

    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(
        {
            k: v
            for k, v in payload.items()
            if k not in (
                "scaling", "triage", "hotpath", "distributed", "stateful",
                "coverage",
            )
        },
        indent=2,
    ))
    if "hotpath" in payload and args.hotpath:
        hotpath = payload["hotpath"]
        print(
            f"hotpath: {hotpath['programs_per_sec']} programs/s on "
            f"{hotpath['cpu_count']} CPU(s), "
            f"{hotpath['sat_invocations']} SAT invocations "
            f"(must stay below {hotpath['before']['sat_invocations']}), "
            f"{hotpath['sat_conflicts']} SAT conflicts "
            f"(must stay at or below {hotpath['max_sat_conflicts']}), "
            f"{hotpath['split_equivalences']} split equivalences, "
            f"{hotpath['budget_exhausted']} budget exhausted (must be 0), "
            f"{hotpath['snapshot_emits']} snapshot emits "
            f"(must stay at or below {hotpath['max_snapshot_emits']}), "
            f"{hotpath['typecheck_runs']} type checks "
            f"(must stay at or below {hotpath['max_typecheck_runs']}), "
            f"byte-identical jobs 1 vs 4: "
            f"{hotpath['reports_byte_identical_jobs1_vs_jobs4']}"
        )
        for name, entry in hotpath["caches"].items():
            print(
                f"    {name:10s} {entry['hits']:6d} hits / "
                f"{entry['misses']:6d} misses ({entry['hit_rate']:.0%})"
            )
        collections = hotpath["gc_collections"]
        print(
            f"    gc collections: {collections['gen0']} gen0, "
            f"{collections['gen1']} gen1, {collections['gen2']} full "
            f"(must stay at or below {hotpath['max_full_collections']})"
        )
    if "scaling" in payload:
        summary = [
            (
                point["executor"],
                point["jobs"],
                point["elapsed_s"],
                point["speedup_vs_baseline"],
            )
            for point in payload["scaling"]["curve"]
        ]
        print(f"scaling (executor, jobs, s, x): {summary}")
        print(f"deterministic across jobs: {payload['scaling']['deterministic']}")
    if args.reduce and "triage" in payload:
        triage = payload["triage"]
        for entry in triage["reports"]:
            print(
                f"  {entry['identifier']:45s} "
                f"{entry['original_statements']:3d} -> {entry['reduced_statements']:2d} stmts "
                f"({entry['reduction_ratio']:.0%}) in {entry['elapsed_s']:.2f}s"
            )
        print(
            f"triage: mean reduction {triage['mean_reduction_ratio']:.0%} "
            f"(target >= {triage['target_mean_reduction']:.0%}), "
            f"{triage['triage_elapsed_s']}s for {len(triage['reports'])} reports, "
            f"{triage['sat_invocations']} SAT invocations "
            f"(must stay at or below {triage['max_sat_invocations']}), "
            f"{triage['sat_conflicts']} SAT conflicts"
        )
        for name, entry in triage["reduction_quality"]["per_transform_class"].items():
            print(
                f"    {name:24s} {entry['oracle_calls']:5d} oracle calls, "
                f"{entry['kept_edits']:4d} kept, "
                f"-{entry['statements_removed']} stmts "
                f"({entry['statements_removed_per_oracle_call']:.3f}/call)"
            )
    if args.distributed and "distributed" in payload:
        distributed = payload["distributed"]
        serial = distributed["serial"]
        print(
            f"distributed: serial {serial['units_per_sec']} units/s, "
            f"misses {serial['misses']}"
        )
        for point in distributed["curve"]:
            print(
                f"    workers={point['workers']}: {point['units_per_sec']} units/s, "
                f"{point['leases_issued']} leases, "
                f"misses match serial: {point['misses_match_serial']}"
            )
        fault = distributed["fault"]
        print(
            f"    workers={fault['workers']}, one killed mid-lease: "
            f"{fault['units_per_sec']} units/s, "
            f"{fault['leases_reclaimed']} leases reclaimed, "
            f"{fault['duplicates_discarded']} duplicates discarded"
        )
        print(
            f"distributed deterministic vs jobs=1: {distributed['deterministic']}, "
            f"placement matches serial: {distributed['placement_matches_serial']}"
        )
    if args.stateful and "stateful" in payload:
        stateful = payload["stateful"]
        print(
            f"stateful: {stateful['sequences_replayed']} sequences "
            f"({stateful['packets_replayed']} packets) in "
            f"{stateful['elapsed_s']}s = {stateful['sequences_per_sec']} seq/s, "
            f"{stateful['state_divergence_findings']} state-divergence findings, "
            f"state probe caught: {stateful['state_probe_caught']}"
        )
        for bug_id, entry in stateful["detection"].items():
            print(
                f"    {bug_id:40s} detected={entry['detected']} "
                f"via {entry['technique'] or '-'}"
            )
        print(
            f"stateful byte-identical jobs=2 vs jobs=1: "
            f"{stateful['reports_byte_identical_distributed2_vs_jobs1']}"
        )
    if args.coverage and "coverage" in payload:
        coverage = payload["coverage"]
        for seed, modes in coverage["coverage_cells"].items():
            for mode, cells in modes.items():
                print(
                    f"    seed {seed} {mode:9s} {cells['pass_cells']} pass / "
                    f"{cells['rule_cells']} rule / {cells['feature_cells']} feature / "
                    f"{cells['shape_cells']} shape cells"
                )
        print(
            f"coverage: scheduled rule cells {coverage['scheduled_rule_cells_total']} "
            f"(bandit {coverage['bandit_rule_cells_total']}), at least static on "
            f"every seed: {coverage['scheduled_rule_cells_at_least_static']}"
        )
        print(
            f"coverage byte-identical jobs 1/2/4: "
            f"{coverage['scheduled_reports_byte_identical_jobs1_jobs4_distributed2']}"
            f", coverage counters identical: "
            f"{coverage['scheduled_coverage_identical_across_executors']}"
        )
    if args.matrix:
        matrix = payload["detection_matrix"]
        detected = sum(1 for entry in matrix["results"].values() if entry["detected"])
        print(f"detection matrix: {detected}/{len(matrix['results'])} defects detected")
        if matrix["lost_detections"]:
            print(f"LOST DETECTIONS (regression): {matrix['lost_detections']}")
        if matrix["new_detections"]:
            print(f"new detections (refresh {matrix['baseline']}): "
                  f"{matrix['new_detections']}")
    print(f"\nwrote {out_path}")
    succeeded = payload["meets_target"] and payload["backends_campaign"][
        "all_defects_reported"
    ]
    if "triage" in payload:
        succeeded = succeeded and payload["triage"]["meets_target"]
    if "hotpath" in payload:
        succeeded = succeeded and payload["hotpath"]["meets_target"]
    if "distributed" in payload:
        succeeded = succeeded and payload["distributed"]["meets_target"]
    if "stateful" in payload:
        succeeded = succeeded and payload["stateful"]["meets_target"]
    if "coverage" in payload:
        succeeded = succeeded and payload["coverage"]["meets_target"]
    if "detection_matrix" in payload:
        succeeded = succeeded and not payload["detection_matrix"]["regressed"]
    return 0 if succeeded else 1


if __name__ == "__main__":
    raise SystemExit(main())
