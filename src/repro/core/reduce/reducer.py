"""The reduction loop: shrink a program while an oracle keeps confirming.

The reducer cycles through the statement-removing transformation classes in
:data:`repro.core.reduce.transforms.PRIMARY_TRANSFORMS` until a full round
changes nothing (or the round budget runs out), then gives the cosmetic
polishers in :data:`~repro.core.reduce.transforms.POLISH_TRANSFORMS` one
single pass over the leftovers — each polish class gated by its recorded
yield in the last ``make bench-reduce`` run (see :data:`POLISH_MIN_YIELD`:
a class that historically keeps almost none of its attempted edits is all
oracle cost and gets skipped).  Transformations mutate the
working program in place and call back into :meth:`ReductionOracle.accepts`
for every candidate; the oracle

1. re-typechecks the candidate (:func:`repro.p4.typecheck.check_program`) —
   an edit that breaks well-formedness is rejected before the bug predicate
   ever sees it, so reduction cannot "confirm" on a program the front end
   would refuse, and
2. runs the caller's ``still_fails`` predicate, treating any exception it
   raises as "the bug is gone" (a reduction step must never abort triage).

Everything here is deterministic: transformations enumerate edits in
program order and the predicate is a pure function of the candidate, so
the same (program, finding) pair reduces to the same result in every
process — which is what lets the engine shard reductions across a fleet
and still merge byte-identical reports.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.p4 import ast, emit_program
from repro.p4.typecheck import TypeCheckError, check_program

Predicate = Callable[[ast.Program], bool]

#: Hard ceiling on oracle invocations per reduction, protecting campaign
#: throughput against pathological programs (each attempt can cost a full
#: compile + validate).  Reductions that hit it keep their progress so far.
MAX_ATTEMPTS = 2500

#: Minimum historical yield — kept edits per oracle call — a *polish*
#: transformation must have shown in the last recorded ``make bench-reduce``
#: run for the reducer to spend budget on it.  Polish transforms never
#: remove statements (table properties and header fields are not counted by
#: :func:`program_size`), so their worth is measured by how many of their
#: attempted edits the oracle keeps; a class whose recorded yield drops
#: below this floor is all cost and gets skipped.
POLISH_MIN_YIELD = 0.25

#: Repo-root bench record the polish gate reads its history from.
_BENCH_PATH = os.path.join(
    os.path.dirname(
        os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        )
    ),
    "BENCH_campaign.json",
)

_RECORDED_QUALITY_CACHE: Optional[Dict[str, Dict[str, float]]] = None


def recorded_polish_quality() -> Dict[str, Dict[str, float]]:
    """Per-transform-class stats from the committed bench record.

    Returns ``triage.reduction_quality.per_transform_class`` of
    ``BENCH_campaign.json`` (empty when the file or section is missing —
    no history means no gating).  Cached per process: campaigns fork
    workers from a parent that already paid the read, and the committed
    file is identical for every worker, so the gate cannot introduce
    scheduler dependence.
    """

    global _RECORDED_QUALITY_CACHE
    if _RECORDED_QUALITY_CACHE is None:
        quality: Dict[str, Dict[str, float]] = {}
        try:
            with open(_BENCH_PATH, encoding="utf-8") as handle:
                payload = json.load(handle)
            quality = (
                payload.get("triage", {})
                .get("reduction_quality", {})
                .get("per_transform_class", {})
            )
        except (OSError, ValueError):
            quality = {}
        _RECORDED_QUALITY_CACHE = quality
    return _RECORDED_QUALITY_CACHE


def gate_polish_transforms(
    quality: Optional[Dict[str, Dict[str, float]]],
) -> Tuple[Tuple, List[str]]:
    """Split the polish pipeline into (run these, skipped names) by history.

    A class with no recorded entry (or no recorded oracle calls) runs —
    absence of evidence must not freeze a transform out forever.
    """

    from repro.core.reduce.transforms import POLISH_TRANSFORMS

    if not quality:
        return POLISH_TRANSFORMS, []
    kept = []
    skipped: List[str] = []
    for transform in POLISH_TRANSFORMS:
        entry = quality.get(transform.__name__)
        calls = entry.get("oracle_calls", 0) if entry else 0
        if not calls:
            kept.append(transform)
            continue
        if entry.get("kept_edits", 0) / calls >= POLISH_MIN_YIELD:
            kept.append(transform)
        else:
            skipped.append(transform.__name__)
    return tuple(kept), skipped


class ReductionOracle:
    """Typecheck-gated, exception-safe wrapper around the bug predicate."""

    def __init__(self, still_fails: Predicate, max_attempts: int = MAX_ATTEMPTS) -> None:
        self.still_fails = still_fails
        self.max_attempts = max_attempts
        self.attempts = 0
        self.accepted = 0
        self.typecheck_rejections = 0

    @property
    def exhausted(self) -> bool:
        return self.attempts >= self.max_attempts

    def accepts(self, candidate: ast.Program) -> bool:
        """True when the candidate is well-formed and still trips the bug."""

        if self.exhausted:
            return False
        self.attempts += 1
        try:
            check_program(candidate)
        except TypeCheckError:
            self.typecheck_rejections += 1
            return False
        except Exception:  # noqa: BLE001 - a checker crash is not a confirmation
            self.typecheck_rejections += 1
            return False
        try:
            verdict = bool(self.still_fails(candidate))
        except Exception:  # noqa: BLE001 - predicate errors mean "bug gone"
            return False
        if verdict:
            self.accepted += 1
        return verdict


@dataclass
class ReductionResult:
    """What one reduction produced, plus enough numbers to judge it."""

    program: ast.Program
    source: str
    original_size: int
    reduced_size: int
    rounds: int
    attempts: int
    accepted_edits: int
    #: False when the original program did not satisfy the predicate (the
    #: finding could not be reproduced, so nothing was reduced).
    reproduced: bool = True
    #: Per-transformation-class effort accounting, keyed by the transform
    #: function name: oracle calls spent, edits kept, and statements
    #: removed while that class ran.  This is the raw material for the
    #: reduction-quality metrics ``make bench-reduce`` records -- it shows
    #: which classes buy shrinkage and which mostly burn oracle budget.
    transform_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Polish transformation classes the quality gate skipped this run
    #: (recorded yield below :data:`POLISH_MIN_YIELD`).
    polish_skipped: List[str] = field(default_factory=list)

    @property
    def reduction_ratio(self) -> float:
        """Fraction of statements removed (0.0 when nothing shrank)."""

        if self.original_size <= 0:
            return 0.0
        return 1.0 - (self.reduced_size / self.original_size)


def program_size(program: ast.Program) -> int:
    """Statement count of a program (the paper-style reduction metric).

    Blocks are containers and empty statements are noise, so neither is
    counted; everything else that executes — assignments, calls, branches,
    declarations with initializers, returns, exits, parser-state
    statements — is.
    """

    return sum(
        1
        for node in ast.walk(program)
        if isinstance(node, ast.Statement)
        and not isinstance(node, (ast.BlockStatement, ast.EmptyStatement))
    )


def reduce_program(
    program: ast.Program,
    still_fails: Predicate,
    max_rounds: int = 8,
    transforms: Optional[Sequence] = None,
    max_attempts: int = MAX_ATTEMPTS,
    polish_quality: Optional[Dict[str, Dict[str, float]]] = None,
) -> ReductionResult:
    """Shrink ``program`` while ``still_fails`` keeps returning True.

    The original program is returned unchanged (with ``reproduced=False``)
    when it does not satisfy the predicate — reduction must never drift
    onto a different bug than the one the finding recorded.

    ``polish_quality`` is the per-transform-class history the polish gate
    judges by (``None`` reads the committed bench record; pass ``{}`` to
    disable the gate).  It only applies to the default staged pipeline —
    explicit ``transforms`` lists are the caller's exact contract.
    """

    from repro.core.reduce.transforms import PRIMARY_TRANSFORMS

    if polish_quality is None:
        polish_quality = recorded_polish_quality()
    polish, polish_skipped = gate_polish_transforms(polish_quality)

    original_size = program_size(program)
    oracle = ReductionOracle(still_fails, max_attempts=max_attempts)
    try:
        reproduced = bool(still_fails(program))
    except Exception:  # noqa: BLE001 - an erroring oracle cannot anchor a reduction
        reproduced = False
    if not reproduced:
        return ReductionResult(
            program=program,
            source=emit_program(program),
            original_size=original_size,
            reduced_size=original_size,
            rounds=0,
            attempts=1,
            accepted_edits=0,
            reproduced=False,
        )

    current = program.clone()
    rounds = 0
    transform_stats: Dict[str, Dict[str, int]] = {}
    size_now = program_size(current)

    def run_pipeline(pipeline) -> bool:
        nonlocal size_now
        changed = False
        for transform in pipeline:
            name = getattr(transform, "__name__", str(transform))
            attempts_before = oracle.attempts
            accepted_before = oracle.accepted
            size_before = size_now
            changed |= transform(current, oracle.accepts)
            size_now = program_size(current)
            entry = transform_stats.setdefault(
                name, {"oracle_calls": 0, "kept_edits": 0, "statements_removed": 0}
            )
            entry["oracle_calls"] += oracle.attempts - attempts_before
            entry["kept_edits"] += oracle.accepted - accepted_before
            entry["statements_removed"] += size_before - size_now
            if oracle.exhausted:
                break
        return changed

    # Explicit transform lists run flat, once per round (legacy contract).
    # The default pipeline is staged: the statement-removing transforms
    # iterate to their fixpoint first; the cosmetic polishers — which
    # almost never remove a statement but cost dozens of oracle calls —
    # get exactly ONE pass over the leftovers.  Re-entering the primary
    # loop after a cosmetic edit re-pays a full primary round for nothing
    # (polish edits delete table properties and header fields, not
    # statements), and polishing to ITS fixpoint keeps halving header
    # widths long after the trigger stopped depending on them.
    for _ in range(max_rounds):
        if oracle.exhausted:
            break
        rounds += 1
        if transforms is not None:
            if not run_pipeline(transforms):
                break
        else:
            if not run_pipeline(PRIMARY_TRANSFORMS):
                break
    if transforms is None and polish and not oracle.exhausted and rounds < max_rounds:
        rounds += 1
        run_pipeline(polish)
    return ReductionResult(
        program=current,
        source=emit_program(current),
        original_size=original_size,
        reduced_size=size_now,
        rounds=rounds,
        attempts=oracle.attempts + 1,  # + the initial reproduction check
        accepted_edits=oracle.accepted,
        transform_stats=transform_stats,
        polish_skipped=list(polish_skipped) if transforms is None else [],
    )
