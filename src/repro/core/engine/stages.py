"""Worker-side pipeline stages: generate → compile(platform) → oracles.

Every function in this module runs *inside the worker process* (which may
be the parent, under the serial executor).  Workers hold their own
compiler, validator, solver and cache state — PR 1's intern tables and
memo caches are process-local by design — so nothing here touches shared
mutable state, and the only thing that crosses back to the parent is the
JSON-serialisable outcome.

Per-process caches:

* ``_PROGRAM_MEMO`` — a :class:`~repro.metrics.LruCache` of the last 64
  generated programs (``program_hits`` / ``program_misses``), keyed by
  ``(generator config, index)``, each with its emitted source and its
  ``program_features`` cells: every executor runs the per-platform units
  of one program on one worker
  (:func:`~repro.core.engine.units.program_groups`), so the program is
  generated, and its features scanned, once.  Regeneration elsewhere (a
  reclaimed lease) is deterministic (child seeds), so the memo is purely
  an optimisation.

Symbolic packet tests are memoised per process by
:func:`repro.core.testgen.cached_sequences` (keyed by emitted source), shared
between platforms and across the per-defect detection matrix.

Importing this module also sets the process's garbage-collection policy
(:data:`GC_GEN0_THRESHOLD`): every process that runs units imports it, and
forked fleet workers inherit the setting.
"""

from __future__ import annotations

import gc
import time
from dataclasses import astuple, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import metrics, smt
from repro.compiler import CompilerOptions, clear_prefix_cache, compile_prefix
from repro.compiler.coverage import CoverageMap, program_features, shape_cell
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.core.crash import classify_compilation, crash_from_exception
from repro.core.generator import RandomProgramGenerator
from repro.core.testgen import clear_testgen_cache, program_has_state
from repro.core.validation import (
    TranslationValidator,
    ValidationOutcome,
    ValidationReport,
    term_shape_histogram,
)
from repro.p4 import ast, emit_program, parse_program
from repro.targets import BACKEND_REGISTRY

from repro.core.engine.units import (
    FINDING_CRASH,
    FINDING_INVALID,
    FINDING_SEMANTIC,
    KINDS,
    STATUS_CLEAN,
    STATUS_FINDING,
    STATUS_ORACLE_ERROR,
    STATUS_REJECTED,
    TRIAGE_REDUCED,
    TRIAGE_UNREPRODUCED,
    FindingRecord,
    MatrixOutcome,
    MatrixUnit,
    TriageOutcome,
    TriageUnit,
    UnitOutcome,
    WorkUnit,
    detection_technique,
)
from repro.core.reduce import (
    build_predicate,
    localize_finding,
    reduce_program,
)
from repro.core.reduce.oracles import backend_bug_set, p4c_bug_set, packet_mismatch

# ----------------------------------------------------------------------
# Per-process state
# ----------------------------------------------------------------------

#: Generation-0 threshold of the cyclic garbage collector (CPython's default
#: is 700).  A campaign's long-lived heap is large and only grows:
#: hash-consed terms plus memoised snapshots, semantics and tests, 210k
#: tracked objects after 40 programs and 350k after 200.  Every full
#: collection walks all of it, and CPython starts one whenever that heap
#: has grown by 25% since the last.  At the default, the clean 200-program,
#: three-platform campaign of ``make bench-hotpath`` ran 27 full
#: collections, and the collector took 3.8 s of its 14.1 s (2-CPU VM,
#: Python 3.11).  At 10 000 it runs one, the collector takes 0.8 s of
#: 10.6 s, and peak RSS rises by about 1 MB.  The gen1 and gen2 thresholds
#: keep their defaults.  The collector cannot simply be disabled: per-call
#: closures (the recursive ``walk`` helpers in ``repro.smt.simplify`` and
#: ``repro.smt.evaluate``) make real cyclic garbage.  Units report their
#: collections as ``gc_gen*_collections`` counters; the ``perfbench``
#: tracer has no collector span and charges a collection's time to
#: whichever layer allocated when it started.
GC_GEN0_THRESHOLD = 10_000

gc.set_threshold(GC_GEN0_THRESHOLD)


@dataclass
class GeneratedProgram:
    """One generated program, as memoised for its platform units."""

    program: ast.Program
    source: str
    #: ``program_features`` cells, scanned by the first unit that needs them.
    features: Optional[Dict[str, int]] = None


_PROGRAM_MEMO = metrics.LruCache("program", 64)

_VALIDATOR = TranslationValidator()


def reset_worker_state() -> None:
    """Drop per-process memo caches (tests and benchmarks start runs cold)."""

    _PROGRAM_MEMO.clear()
    clear_testgen_cache()
    clear_prefix_cache()
    smt.clear_equivalence_cache()


# ----------------------------------------------------------------------
# Stage: generate
# ----------------------------------------------------------------------

def stage_generate(unit: WorkUnit) -> GeneratedProgram:
    """Deterministically (re)generate the unit's program and its source."""

    key = (astuple(unit.generator), unit.program_index)
    generated = _PROGRAM_MEMO.get(key)
    if generated is metrics.MISSING:
        generator = RandomProgramGenerator(unit.generator)
        program = generator.generate_indexed(unit.program_index)
        generated = GeneratedProgram(program, emit_program(program))
        _PROGRAM_MEMO.put(key, generated)
    return generated


# ----------------------------------------------------------------------
# Stage: compile + oracles, per platform
# ----------------------------------------------------------------------

def _p4c_stage(
    unit: WorkUnit, program: ast.Program, source: str
) -> Tuple[str, List[FindingRecord]]:
    """Open-toolchain unit: crash detection + translation validation."""

    options = CompilerOptions(enabled_bugs=p4c_bug_set(unit.enabled_bugs))
    result = compile_prefix(program, source, options)
    if result.rejected:
        return STATUS_REJECTED, []
    crash = classify_compilation(result, platform="p4c")
    if crash is not None:
        return STATUS_FINDING, [
            FindingRecord(
                kind=FINDING_CRASH,
                platform="p4c",
                pass_name=crash.pass_name,
                description=crash.message,
                signature=crash.signature,
            )
        ]
    report = _VALIDATOR.validate_compilation(result)
    if report.outcome == ValidationOutcome.ORACLE_ERROR:
        return STATUS_ORACLE_ERROR, []
    finding = _validation_finding(report, "p4c")
    if finding is not None:
        return STATUS_FINDING, [finding]
    return STATUS_CLEAN, []


def _validation_finding(
    report: ValidationReport, platform: str
) -> Optional[FindingRecord]:
    """The finding a validation report files: an invalid transformation or
    the first semantic divergence, or ``None`` for any other outcome."""

    if report.outcome == ValidationOutcome.INVALID_TRANSFORMATION:
        return FindingRecord(
            kind=FINDING_INVALID,
            platform=platform,
            pass_name=report.invalid_pass or "ToP4",
            description=report.detail,
        )
    if report.outcome == ValidationOutcome.SEMANTIC_BUG:
        divergence = report.divergences[0]
        return FindingRecord(
            kind=FINDING_SEMANTIC,
            platform=platform,
            pass_name=divergence.pass_name,
            description=(
                f"pass {divergence.pass_name} changed {divergence.output_path} "
                f"in block {divergence.block}"
            ),
            witness=dict(divergence.witness),
            before_pass=divergence.before_pass,
        )
    return None


def packet_test(
    unit: WorkUnit, program: ast.Program, source: str, executable, spec
) -> Optional[str]:
    """Run the symbolic packet tests against a compiled executable.

    Returns a human-readable mismatch description, or ``None`` when every
    test passes (or the oracle could not produce tests for this program).
    The actual oracle lives in :func:`repro.core.reduce.oracles.packet_mismatch`
    so the triage predicates exercise the exact same check.
    """

    return packet_mismatch(
        program, source, executable, spec, unit.max_tests, unit.sequence_length
    )


def _backend_stage(
    unit: WorkUnit, program: ast.Program, source: str
) -> Tuple[str, List[FindingRecord]]:
    """Closed-backend unit: crash detection + symbolic packet tests.

    The front/mid-end prefix comes from the process-wide memo
    (:func:`repro.compiler.compile_prefix`): the back ends of one program
    share a single prefix compilation (backend defects never reach the
    prefix, so they share a key) and the target only runs its own
    lowering via ``link``.  The shared prefix is then *validated* through
    the same snapshot-keyed reparse/interp caches the open-toolchain unit
    warms — nearly free on a cache re-walk, and the only way a latent
    mid-end defect on the backend's (usually clean) prefix chain gets
    reported rather than silently lowered.  A validator limitation
    (``ORACLE_ERROR``) never blocks the §6 packet tests.
    """

    platform = unit.platform
    spec = BACKEND_REGISTRY[platform]
    platform_bugs = backend_bug_set(unit.enabled_bugs, platform)
    target = spec.target_cls(CompilerOptions(enabled_bugs=platform_bugs, target=platform))
    result = compile_prefix(program, source, target.options)
    try:
        executable = target.link(result)
    except CompilerCrash as crash_exc:
        crash = crash_from_exception(crash_exc, platform)
        return STATUS_FINDING, [
            FindingRecord(
                kind=FINDING_CRASH,
                platform=platform,
                pass_name=crash.pass_name,
                description=crash.message,
                signature=crash.signature,
            )
        ]
    except CompilerError:
        return STATUS_REJECTED, []
    finding = _validation_finding(_VALIDATOR.validate_compilation(result), platform)
    if finding is not None:
        return STATUS_FINDING, [finding]
    mismatch = packet_test(unit, program, source, executable, spec)
    if mismatch is not None:
        return STATUS_FINDING, [
            FindingRecord(
                kind=FINDING_SEMANTIC,
                platform=platform,
                pass_name="backend",
                description=mismatch,
                attributed_bugs=_bisect_backend_defects(unit, program, source, spec),
            )
        ]
    return STATUS_CLEAN, []


def _bisect_backend_defects(
    unit: WorkUnit, program: ast.Program, source: str, spec
) -> Tuple[str, ...]:
    """Attribute a packet mismatch to individual enabled backend defects.

    Recompiles the trigger with each same-platform enabled defect alone and
    re-runs the packet tests: a defect is implicated iff it reproduces the
    mismatch by itself.  Cheap where it matters — the front/mid-end prefix
    is memoised process-wide (backend defects never reach the prefix, so
    every singleton shares the compilation this unit already paid for) and
    the symbolic packet tests are memoised by source — so each singleton
    costs one backend lowering plus the packet replay.

    Returns the implicated defects in sorted order, or ``()`` when no
    singleton reproduces (an interaction-only mismatch, or an unseeded
    backend bug): the merge then falls back to the legacy platform-level
    attribution rather than inventing a culprit.
    """

    platform_bugs = backend_bug_set(unit.enabled_bugs, unit.platform)
    if len(platform_bugs) <= 1:
        # The mismatch already *is* the singleton run (or there is nothing
        # to attribute): no recompilation can add information.
        return tuple(sorted(platform_bugs))
    attributed = []
    for bug_id in sorted(platform_bugs):
        target = spec.target_cls(
            CompilerOptions(enabled_bugs={bug_id}, target=unit.platform)
        )
        result = compile_prefix(program, source, target.options)
        try:
            executable = target.link(result)
        except (CompilerCrash, CompilerError):
            continue  # the lone defect breaks compilation: not this mismatch
        if packet_mismatch(
            program, source, executable, spec, unit.max_tests, unit.sequence_length
        ):
            attributed.append(bug_id)
    return tuple(attributed)


# ----------------------------------------------------------------------
# The worker entry point
# ----------------------------------------------------------------------

def _unit_coverage(unit: WorkUnit, generated: GeneratedProgram) -> Dict[str, int]:
    """Coverage cells this unit's program lit up (pure function of the unit).

    The feature scan runs once per memoised program and is shared by its
    platform units.  :func:`compile_prefix` re-runs with the same options
    the platform stage just used, so the compilation (and its attached
    rule/pass coverage) is a guaranteed memo hit — the only new work is
    the shape histogram, near-free.  Coverage is feedback, never an
    oracle: any failure degrades to fewer cells, not a failed unit.
    """

    try:
        if generated.features is None:
            generated.features = program_features(generated.program).to_dict()
        coverage = CoverageMap(dict(generated.features))
        if unit.platform == "p4c":
            options = CompilerOptions(enabled_bugs=p4c_bug_set(unit.enabled_bugs))
        else:
            options = CompilerOptions(
                enabled_bugs=backend_bug_set(unit.enabled_bugs, unit.platform),
                target=unit.platform,
            )
        result = compile_prefix(generated.program, generated.source, options)
        coverage.update(result.coverage.to_dict())
        if result.succeeded and result.snapshots:
            histogram = term_shape_histogram(result.snapshots[-1])
            coverage.update(
                {shape_cell(op): count for op, count in histogram.items()}
            )
        return coverage.to_dict()
    except Exception:  # noqa: BLE001 - coverage must never fail a unit
        return {}


def run_unit(unit: WorkUnit) -> UnitOutcome:
    """Execute one work unit end to end and report its outcome.

    An oracle failure is an outcome, not an exception: a unit that raises
    fails its campaign (under the fleet, the worker exits with status 1
    and the executor raises).
    """

    before = metrics.snapshot()
    start = time.perf_counter()
    generated = stage_generate(unit)
    program, source = generated.program, generated.source
    if unit.platform == "p4c":
        status, findings = _p4c_stage(unit, program, source)
    elif unit.platform in BACKEND_REGISTRY:
        status, findings = _backend_stage(unit, program, source)
    else:
        raise ValueError(f"unknown platform {unit.platform!r}")
    coverage = _unit_coverage(unit, generated)
    elapsed = time.perf_counter() - start
    after = metrics.snapshot()
    deltas = {key: after[key] - before.get(key, 0) for key in after}
    return UnitOutcome(
        program_index=unit.program_index,
        platform=unit.platform,
        status=status,
        findings=findings,
        source=source,
        counters=deltas,
        coverage=coverage,
        elapsed_s=elapsed,
    )


def runner_for(kind: str) -> Callable:
    """This module's runner for ``kind``, looked up when called: a tracer
    may have rebound the name since import."""

    return globals()[KINDS[kind].runner]


def run_matrix_unit(unit: MatrixUnit) -> MatrixOutcome:
    """Try one seeded defect's programs in index order until one detects it."""

    fresh: List[UnitOutcome] = []
    for index in range(unit.start, unit.programs_per_bug):
        outcome = run_unit(unit.work_unit(index))
        fresh.append(outcome)
        if outcome.status == STATUS_FINDING:
            return MatrixOutcome(
                unit.bug_id, True, detection_technique(outcome), index + 1, fresh
            )
    return MatrixOutcome(unit.bug_id, False, "", unit.programs_per_bug, fresh)


# ----------------------------------------------------------------------
# The triage stage (reduce + localize), one unit per deduplicated report
# ----------------------------------------------------------------------

def run_triage_unit(unit: TriageUnit) -> TriageOutcome:
    """Reduce one filed report's trigger program and localize its defect.

    Runs worker-side on the same executor as generation units (never
    raises).  The whole computation is a
    deterministic function of the unit — the trigger source is parsed back
    to an AST, the oracle predicate is rebuilt from the original finding,
    and the reducer enumerates edits in program order — so ``jobs=1`` and
    ``jobs=8`` triage byte-identically.
    """

    start = time.perf_counter()
    try:
        program = parse_program(unit.source)
        predicate = build_predicate(
            unit.finding,
            unit.platform,
            unit.enabled_bugs,
            unit.max_tests,
            unit.sequence_length,
        )
        result = reduce_program(program, predicate, max_rounds=unit.reduce_rounds)
        if not result.reproduced:
            return TriageOutcome(
                identifier=unit.identifier,
                status=TRIAGE_UNREPRODUCED,
                original_size=result.original_size,
                reduced_size=result.reduced_size,
                attempts=result.attempts,
                elapsed_s=time.perf_counter() - start,
            )
    except Exception:  # noqa: BLE001 - triage failure is an outcome
        return TriageOutcome(
            identifier=unit.identifier,
            status=TRIAGE_UNREPRODUCED,
            localized_pass=unit.finding.pass_name,
            elapsed_s=time.perf_counter() - start,
        )
    try:
        localized, pair = localize_finding(
            unit.finding, result.program, unit.platform, unit.enabled_bugs
        )
    except Exception:  # noqa: BLE001 - a failed bisect must not drop the reduction
        localized, pair = unit.finding.pass_name, None
    return TriageOutcome(
        identifier=unit.identifier,
        status=TRIAGE_REDUCED,
        reduced_source=result.source,
        original_size=result.original_size,
        reduced_size=result.reduced_size,
        rounds=result.rounds,
        attempts=result.attempts,
        localized_pass=localized,
        pass_pair=pair,
        elapsed_s=time.perf_counter() - start,
        transform_stats=result.transform_stats,
        min_sequence_length=_minimize_sequence_length(unit, result.program),
    )


def _minimize_sequence_length(unit: TriageUnit, reduced: ast.Program) -> int:
    """Shrink the replay vector: fewest packets that still show the bug.

    Backend packet findings on stateful programs only — every other oracle
    is single-packet by construction (returns ``0``, "not applicable").
    The probe rebuilds the packet predicate at each shorter length and
    replays the *reduced* trigger; lengths are tried smallest-first so the
    first success is the minimum.  A probe failure keeps the campaign
    length — minimization is best-effort polish, never a correctness gate.
    """

    if unit.platform == "p4c" or unit.finding.kind != FINDING_SEMANTIC:
        return 0
    if unit.sequence_length <= 1 or not program_has_state(reduced):
        return 0
    for length in range(1, unit.sequence_length):
        try:
            shorter = build_predicate(
                unit.finding, unit.platform, unit.enabled_bugs, unit.max_tests, length
            )
            if shorter(reduced):
                return length
        except Exception:  # noqa: BLE001 - best-effort minimization
            break
    return unit.sequence_length
