"""The reduction loop: shrink a program while an oracle keeps confirming.

The reducer is one fixed pipeline.  It cycles through the
statement-removing transformation classes in
:data:`repro.core.reduce.transforms.PRIMARY_TRANSFORMS` until a full round
changes nothing (or the round budget runs out), then gives the cosmetic
polishers in :data:`~repro.core.reduce.transforms.POLISH_TRANSFORMS` one
single pass over the leftovers.  Transformations mutate the working
program in place and call back into :meth:`ReductionOracle.accepts` for
every candidate; the oracle

1. emits the candidate once and re-typechecks it
   (:func:`repro.p4.typecheck.checked_types`, memoised by that source) —
   an edit that breaks well-formedness is rejected before the bug predicate
   ever sees it, so reduction cannot "confirm" on a program the front end
   would refuse, and
2. runs the caller's ``still_fails(candidate, source)`` predicate on the
   same source, treating any exception it raises as "the bug is gone" (a
   reduction step must never abort triage) and counting it as
   ``reduce_predicate_errors``, so a predicate that always raises shows
   in the campaign counters instead of passing for an unreproduced bug.

Everything here is deterministic and reads nothing but its arguments:
transformations enumerate edits in program order and the predicate is a
pure function of the candidate, so the same (program, finding) pair
reduces to the same result in every process — which is what lets the
engine shard reductions across a fleet and still merge byte-identical
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.metrics import COUNTERS, declare
from repro.p4 import ast, emit_program
from repro.p4.typecheck import checked_types

declare("reduce_predicate_errors")

#: ``still_fails(candidate, source)``, where ``source`` is the candidate's
#: emitted source.
Predicate = Callable[[ast.Program, str], bool]

#: Hard ceiling on oracle invocations per reduction, protecting campaign
#: throughput against pathological programs (each attempt can cost a full
#: compile + validate).  Reductions that hit it keep their progress so far.
MAX_ATTEMPTS = 2500


class ReductionOracle:
    """Typecheck-gated, exception-safe wrapper around the bug predicate."""

    def __init__(self, still_fails: Predicate) -> None:
        self.still_fails = still_fails
        self.attempts = 0
        self.accepted = 0

    @property
    def exhausted(self) -> bool:
        return self.attempts >= MAX_ATTEMPTS

    def accepts(self, candidate: ast.Program) -> bool:
        """True when the candidate is well-formed and still trips the bug."""

        if self.exhausted:
            return False
        self.attempts += 1
        try:
            source = emit_program(candidate)
            checked_types(candidate, source)
        except Exception:  # noqa: BLE001 - ill-typed (or a checker crash): no confirmation
            return False
        try:
            verdict = bool(self.still_fails(candidate, source))
        except Exception:  # noqa: BLE001 - predicate errors mean "bug gone"
            COUNTERS["reduce_predicate_errors"] += 1
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
    #: False when the original program did not satisfy the predicate (the
    #: finding could not be reproduced, so nothing was reduced).
    reproduced: bool = True
    #: Per-transformation-class effort accounting, keyed by the transform
    #: function name: oracle calls spent, edits kept, and statements
    #: removed while that class ran.  This is the raw material for the
    #: reduction-quality metrics ``make bench-reduce`` records -- it shows
    #: which classes buy shrinkage and which mostly burn oracle budget.
    transform_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

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
        for node in ast.walk_statements(program)
        if isinstance(node, ast.Statement)
        and not isinstance(node, (ast.BlockStatement, ast.EmptyStatement))
    )


def reduce_program(
    program: ast.Program, still_fails: Predicate, max_rounds: int = 8
) -> ReductionResult:
    """Shrink ``program`` while ``still_fails`` keeps returning True.

    The original program is returned unchanged (with ``reproduced=False``)
    when it does not satisfy the predicate — reduction must never drift
    onto a different bug than the one the finding recorded.
    """

    from repro.core.reduce.transforms import POLISH_TRANSFORMS, PRIMARY_TRANSFORMS

    original_size = program_size(program)
    oracle = ReductionOracle(still_fails)
    source = emit_program(program)
    try:
        reproduced = bool(still_fails(program, source))
    except Exception:  # noqa: BLE001 - an erroring oracle cannot anchor a reduction
        COUNTERS["reduce_predicate_errors"] += 1
        reproduced = False
    if not reproduced:
        return ReductionResult(
            program=program,
            source=source,
            original_size=original_size,
            reduced_size=original_size,
            rounds=0,
            attempts=1,
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
            attempts_before = oracle.attempts
            accepted_before = oracle.accepted
            size_before = size_now
            changed |= transform(current, oracle.accepts)
            size_now = program_size(current)
            entry = transform_stats.setdefault(
                transform.__name__,
                {"oracle_calls": 0, "kept_edits": 0, "statements_removed": 0},
            )
            entry["oracle_calls"] += oracle.attempts - attempts_before
            entry["kept_edits"] += oracle.accepted - accepted_before
            entry["statements_removed"] += size_before - size_now
            if oracle.exhausted:
                break
        return changed

    # The statement-removing transforms iterate to their fixpoint first;
    # the cosmetic polishers — which almost never remove a statement but
    # cost dozens of oracle calls — get exactly ONE pass over the
    # leftovers.  Re-entering the primary loop after a cosmetic edit
    # re-pays a full primary round for nothing (polish edits delete table
    # properties and header fields, not statements), and polishing to ITS
    # fixpoint keeps halving header widths long after the trigger stopped
    # depending on them.
    for _ in range(max_rounds):
        if oracle.exhausted:
            break
        rounds += 1
        if not run_pipeline(PRIMARY_TRANSFORMS):
            break
    if not oracle.exhausted and rounds < max_rounds:
        rounds += 1
        run_pipeline(POLISH_TRANSFORMS)
    return ReductionResult(
        program=current,
        source=emit_program(current),
        original_size=original_size,
        reduced_size=size_now,
        rounds=rounds,
        attempts=oracle.attempts + 1,  # + the initial reproduction check
        transform_stats=transform_stats,
    )
