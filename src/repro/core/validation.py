"""Translation validation (paper §5).

Given the sequence of per-pass snapshots produced by the compiler, the
validator converts every snapshot into SMT formulas (one per programmable
block and output field) and checks consecutive snapshots for equivalence.
A satisfiable inequality query yields both the defective pass and a witness
assignment (input packet + table configuration) that triggers the
miscompilation -- exactly the workflow of figure 2.

Each pair of consecutive changed snapshots is walked output by output, in
block and path order, with :func:`repro.smt.find_divergence`; the first
output that differs names the pass and carries the witness, which a fresh
solver derives from that output pair alone.  No batched probe runs in
front of the walk: the syntactic fast paths, the equivalence memo and the
case split settle almost every output of a clean pair before SAT, and a
pair that reaches SAT nearly always diverges, so a batch would mostly pay
for a query the walk then repeats.

The validator also re-parses and type checks every emitted snapshot, which
catches the "invalid transformation" bugs of §7.2 where a pass emits broken
P4: the first snapshot in pass order that does not reparse or does not
typecheck names the invalid pass.

The reparse check, the type check (:func:`repro.p4.typecheck.checked_types`)
and the symbolic interpretation are memoised by snapshot *source* in
bounded process-wide caches: the pass manager already treats the emitted
source as a snapshot's identity (snapshots with an unchanged source are
skipped, §5.2), and campaigns revisit the same sources constantly -- the
per-defect detection matrix regenerates the same programs for every
defect, and most passes leave most programs untouched -- so each distinct
snapshot is parsed, typechecked and interpreted once per campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro import smt
from repro.compiler.pass_manager import CompilationResult, PassSnapshot
from repro.core.interpreter import BlockSemantics, InterpreterError, SymbolicInterpreter
from repro.metrics import MISSING, LruCache
from repro.p4 import parse_program
from repro.p4.lexer import LexerError, clear_lexer_cache
from repro.p4.parser import ParserError, clear_parser_cache
from repro.p4.typecheck import TypeCheckError, checked_types, clear_typecheck_cache

#: source -> reparse verdict: ``None`` when the snapshot reparses and
#: typechecks cleanly, otherwise the invalid-transformation detail.
_REPARSE_CACHE = LruCache("reparse", 1024)

#: source -> symbolic semantics of every block.  Consumers only read the
#: cached ``BlockSemantics`` (terms are immutable), so sharing is safe.
_INTERP_CACHE = LruCache("interp", 1024)

#: source -> term-shape histogram of the program's symbolic semantics.
_SHAPE_CACHE = LruCache("shape", 1024)

#: ``(block, output path, before term, after term)`` of one snapshot pair.
OutputPair = Tuple[str, str, "smt.Term", "smt.Term"]


def clear_validation_caches() -> None:
    """Drop every snapshot cache: the lexer's line memo, the parser's
    statement memo, reparse, typecheck, interpretation and shape (memory
    bound for services)."""

    clear_lexer_cache()
    clear_parser_cache()
    clear_typecheck_cache()
    _REPARSE_CACHE.clear()
    _INTERP_CACHE.clear()
    _SHAPE_CACHE.clear()


def term_shape_histogram(snapshot: PassSnapshot) -> Dict[str, int]:
    """``term op -> node count`` over the snapshot's symbolic semantics.

    Walks the output (and state-output) term DAGs of every block once,
    memoised on ``id()``: hash-consing interns structurally equal terms to
    one object, so the walk touches each distinct subterm exactly once and
    the histogram is near-free on top of an interpretation that validation
    performs (and caches) anyway.  Programs whose semantics cannot be
    interpreted yield an empty histogram — shape coverage is best-effort
    feedback, never an oracle.
    """

    cached = _SHAPE_CACHE.get(snapshot.source)
    if cached is MISSING:
        cached = _compute_shape_histogram(snapshot)
        _SHAPE_CACHE.put(snapshot.source, cached)
    return dict(cached)


def _compute_shape_histogram(snapshot: PassSnapshot) -> Dict[str, int]:
    try:
        semantics = TranslationValidator._interpret(snapshot)
    except Exception:  # noqa: BLE001 - coverage must never fail a unit
        return {}
    histogram: Dict[str, int] = {}
    seen: set = set()
    stack: List["smt.Term"] = []
    for block in semantics.values():
        stack.extend(block.outputs.values())
        stack.extend(block.state_outputs.values())
    while stack:
        term = stack.pop()
        if id(term) in seen:
            continue
        seen.add(id(term))
        histogram[term.op] = histogram.get(term.op, 0) + 1
        stack.extend(term.children)
    return dict(sorted(histogram.items()))


class ValidationOutcome(Enum):
    """Verdict for one compilation run."""

    EQUIVALENT = "equivalent"
    SEMANTIC_BUG = "semantic_bug"
    INVALID_TRANSFORMATION = "invalid_transformation"
    CRASH = "crash"
    REJECTED = "rejected"
    ORACLE_ERROR = "oracle_error"


@dataclass
class PassDivergence:
    """A semantic difference introduced by one specific pass.

    ``before_pass`` names the last pass whose snapshot still agreed with
    the input semantics, so ``(before_pass, pass_name)`` is the diverging
    snapshot pair — the localisation signal the triage stage stores on
    :class:`~repro.core.bugs.BugReport`.
    """

    pass_name: str
    block: str
    output_path: str
    witness: Dict[str, object]
    before_source: str
    after_source: str
    before_pass: str = ""


@dataclass
class ValidationReport:
    """Everything translation validation learned about one program."""

    outcome: ValidationOutcome
    divergences: List[PassDivergence] = field(default_factory=list)
    invalid_pass: Optional[str] = None
    detail: str = ""

    @property
    def found_bug(self) -> bool:
        return self.outcome in (
            ValidationOutcome.SEMANTIC_BUG,
            ValidationOutcome.INVALID_TRANSFORMATION,
            ValidationOutcome.CRASH,
        )


class TranslationValidator:
    """Check that every compiler pass preserved program semantics.

    Validation stops at the first divergence: later passes work on an
    already-miscompiled program, so their verdicts would not name a defect.
    """

    # -- entry points ---------------------------------------------------------

    def validate_compilation(self, result: CompilationResult) -> ValidationReport:
        """Validate a full compilation result (all snapshots)."""

        if result.crashed:
            return ValidationReport(
                ValidationOutcome.CRASH, detail=str(result.crash)
            )
        if result.rejected:
            return ValidationReport(
                ValidationOutcome.REJECTED, detail=str(result.error)
            )

        snapshots = result.changed_snapshots()
        # Reparse and typecheck every emitted program first: a snapshot that
        # no longer parses or typechecks is an invalid transformation, and
        # later passes cannot be validated meaningfully.
        for snapshot in snapshots[1:]:
            error = self._reparse_error(snapshot.source)
            if error is not None:
                return ValidationReport(
                    ValidationOutcome.INVALID_TRANSFORMATION,
                    invalid_pass=snapshot.pass_name,
                    detail=error,
                )

        divergences: List[PassDivergence] = []
        try:
            previous = snapshots[0]
            previous_semantics = self._interpret(previous)
            for snapshot in snapshots[1:]:
                current_semantics = self._interpret(snapshot)
                pairs = self._output_pairs(previous_semantics, current_semantics)
                divergences = self._compare(previous, snapshot, pairs)
                if divergences:
                    break
                previous = snapshot
                previous_semantics = current_semantics
        except InterpreterError as exc:
            # A failure of our own interpreter must never be reported as a
            # compiler bug (paper §5.2: false alarms are interpreter bugs).
            return ValidationReport(ValidationOutcome.ORACLE_ERROR, detail=str(exc))

        if divergences:
            return ValidationReport(ValidationOutcome.SEMANTIC_BUG, divergences=divergences)
        return ValidationReport(ValidationOutcome.EQUIVALENT)

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _reparse_error(source: str) -> Optional[str]:
        error = _REPARSE_CACHE.get(source)
        if error is MISSING:
            try:
                checked_types(parse_program(source), source)
                error = None
            except (ParserError, LexerError) as exc:
                error = f"emitted program does not reparse: {exc}"
            except TypeCheckError as exc:
                error = f"emitted program does not typecheck: {exc}"
            _REPARSE_CACHE.put(source, error)
        return error

    @staticmethod
    def _output_pairs(
        before_semantics: Dict[str, BlockSemantics],
        after_semantics: Dict[str, BlockSemantics],
    ) -> List[OutputPair]:
        """The ``(block, path, before, after)`` output terms one snapshot
        pair must preserve: per block, the packet outputs, then the state
        outputs (whose ``$state.*`` paths no packet output shares).  An
        output only one side has is skipped."""

        pairs: List[OutputPair] = []
        for block_name, before_block in before_semantics.items():
            after_block = after_semantics.get(block_name)
            if after_block is None:
                continue
            # State-aware equivalence: the final register/counter state is
            # as observable as the packet outputs (it feeds the next packet).
            # Cell paths survive lowering (counters keep their bank name),
            # and both snapshots share the initial-state input symbols, so
            # this quantifies over every reachable and unreachable state.
            for before_outputs, after_outputs in (
                (before_block.outputs, after_block.outputs),
                (before_block.state_outputs, after_block.state_outputs),
            ):
                for path, before_term in before_outputs.items():
                    after_term = after_outputs.get(path)
                    if after_term is not None:
                        pairs.append((block_name, path, before_term, after_term))
        return pairs

    @staticmethod
    def _interpret(snapshot: PassSnapshot) -> Dict[str, BlockSemantics]:
        semantics = _INTERP_CACHE.get(snapshot.source)
        if semantics is MISSING:
            semantics = SymbolicInterpreter(snapshot.program, snapshot.source).interpret()
            _INTERP_CACHE.put(snapshot.source, semantics)
        return semantics

    @staticmethod
    def _compare(
        before: PassSnapshot, after: PassSnapshot, pairs: List[OutputPair]
    ) -> List[PassDivergence]:
        """The pair's first diverging output (a one-element list), or ``[]``.

        Each output goes to :func:`repro.smt.find_divergence`, whose
        syntactic fast paths, equivalence memo and case split settle almost
        every output of a clean pair without SAT; what is left is solved on
        a fresh solver, so the witness depends on the output pair alone.
        """

        for block_name, path, before_term, after_term in pairs:
            witness = smt.find_divergence(before_term, after_term)
            if witness is None:
                continue
            return [
                PassDivergence(
                    pass_name=after.pass_name,
                    block=block_name,
                    output_path=path,
                    witness=dict(witness.items()),
                    before_source=before.source,
                    after_source=after.source,
                    before_pass=before.pass_name,
                )
            ]
        return []
