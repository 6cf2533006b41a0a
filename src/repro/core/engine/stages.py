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
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import metrics, smt
from repro.compiler import CompilerOptions, clear_prefix_cache, compile_prefix
from repro.compiler.coverage import CoverageMap, program_features, shape_cell
from repro.core.generator import RandomProgramGenerator
from repro.core.testgen import clear_testgen_cache, program_has_state
from repro.core.validation import clear_validation_caches, term_shape_histogram
from repro.p4 import ast, emit_program, parse_program

from repro.core.engine.units import (
    KINDS,
    STATUS_FINDING,
    TRIAGE_REDUCED,
    TRIAGE_UNREPRODUCED,
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
from repro.core.reduce.oracles import (
    COMPILE,
    REPLAY,
    is_packet_finding,
    platform_bugs,
    platform_verdict,
)

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


def reset_worker_state() -> None:
    """Drop every per-process memo, so tests and benchmarks start runs cold:
    generated programs, prefix compilations, packet tests, equivalence
    verdicts, the term tables and every snapshot cache (lexer, reparse,
    typecheck, interpretation, shape)."""

    _PROGRAM_MEMO.clear()
    clear_testgen_cache()
    clear_prefix_cache()
    smt.clear_equivalence_cache()
    smt.clear_term_caches()
    clear_validation_caches()


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

def _bisect_backend_defects(
    unit: WorkUnit, program: ast.Program, source: str, bugs: Set[str]
) -> Tuple[str, ...]:
    """Attribute a packet mismatch to the individual defects of ``bugs``,
    the unit's enabled backend defects.

    Asks the platform's oracle again with each same-platform enabled
    defect alone, compiling and replaying only: a defect is implicated iff
    it reproduces a packet mismatch by itself.  Cheap where it matters —
    the front/mid-end prefix is memoised process-wide (backend defects
    never reach the prefix, so every singleton shares the compilation
    this unit already paid for) and the symbolic packet tests are
    memoised by source — so each singleton costs one backend lowering
    plus the packet replay.

    Returns the implicated defects in sorted order, or ``()`` when no
    singleton reproduces (an interaction-only mismatch, or an unseeded
    backend bug): the merge then falls back to the legacy platform-level
    attribution rather than inventing a culprit.
    """

    if len(bugs) <= 1:
        # The mismatch already *is* the singleton run (or there is nothing
        # to attribute): no recompilation can add information.
        return tuple(sorted(bugs))
    attributed = []
    for bug_id in sorted(bugs):
        _, finding = platform_verdict(
            program,
            source,
            unit.platform,
            {bug_id},
            unit.max_tests,
            unit.sequence_length,
            steps=(COMPILE, REPLAY),
        )
        if finding is not None and is_packet_finding(finding):
            attributed.append(bug_id)
    return tuple(attributed)


# ----------------------------------------------------------------------
# The worker entry point
# ----------------------------------------------------------------------

def _unit_coverage(generated: GeneratedProgram, bugs: Set[str]) -> Dict[str, int]:
    """Coverage cells a unit's program lit up under its platform's defect
    set ``bugs`` (a pure function of the unit).

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
        options = CompilerOptions(enabled_bugs=bugs)
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
    bugs = platform_bugs(unit.enabled_bugs, unit.platform)
    status, finding = platform_verdict(
        program, source, unit.platform, bugs, unit.max_tests, unit.sequence_length
    )
    findings = [] if finding is None else [finding]
    if finding is not None and is_packet_finding(finding):
        finding.attributed_bugs = _bisect_backend_defects(unit, program, source, bugs)
    coverage = _unit_coverage(generated, bugs)
    elapsed = time.perf_counter() - start
    return UnitOutcome(
        program_index=unit.program_index,
        platform=unit.platform,
        status=status,
        findings=findings,
        source=source if findings else "",
        counters=_counters_since(before),
        coverage=coverage,
        elapsed_s=elapsed,
    )


def _counters_since(before: Dict[str, int]) -> Dict[str, int]:
    """Every counter's growth since the reading ``before``."""

    after = metrics.snapshot()
    return {key: after[key] - before.get(key, 0) for key in after}


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
    ``jobs=8`` triage byte-identically.  The outcome carries the counter
    growth of the whole unit.
    """

    before = metrics.snapshot()
    outcome = _reduce_and_localize(unit)
    outcome.counters = _counters_since(before)
    return outcome


def _reduce_and_localize(unit: TriageUnit) -> TriageOutcome:
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
        min_sequence_length=_minimize_sequence_length(
            unit, result.program, result.source
        ),
    )


def _minimize_sequence_length(
    unit: TriageUnit, reduced: ast.Program, source: str
) -> int:
    """Shrink the replay vector: fewest packets that still show the bug.

    Backend packet findings on stateful programs only — every other oracle
    is single-packet by construction (returns ``0``, "not applicable").
    The probe rebuilds the packet predicate at each shorter length and
    replays the *reduced* trigger; lengths are tried smallest-first so the
    first success is the minimum.  A probe failure keeps the campaign
    length — minimization is best-effort polish, never a correctness gate.
    """

    if not is_packet_finding(unit.finding):
        return 0
    if unit.sequence_length <= 1 or not program_has_state(reduced):
        return 0
    for length in range(1, unit.sequence_length):
        try:
            shorter = build_predicate(
                unit.finding, unit.platform, unit.enabled_bugs, unit.max_tests, length
            )
            if shorter(reduced, source):
                return length
        except Exception:  # noqa: BLE001 - best-effort minimization
            break
    return unit.sequence_length
