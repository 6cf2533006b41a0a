"""User-facing SMT solver facade.

:class:`Solver` collects Boolean constraints over bit-vector/Boolean terms,
simplifies them, bit-blasts to CNF and runs the CDCL SAT solver.  Models are
reconstructed at the term level (symbol name -> integer / bool) and
double-checked against the original constraints by concrete evaluation,
which guards against bit-blasting bugs.

The facade is *incremental*: each :class:`Solver` owns one persistent
:class:`~repro.smt.bitblast.BitBlaster` and one persistent
:class:`~repro.smt.sat.SatSolver`.  Constraints are blasted exactly once
when first checked; ``check(*extra)`` encodes the extra constraints as
assumption literals instead of rebuilding the CNF, so the SAT solver's
learned-clause database, watch lists, activities and saved phases are
reused across every check on the same solver.  This is what makes the
test generator's checks cheap: one solver per program holds the
environment constraints, and each path constraint is an assumption of a
check, first together with the non-zero preferences and, if that fails,
alone.

Translation validation asks :func:`find_divergence` whether two formulas
agree for every assignment, and if not for a witness assignment.  Because
terms are hash-consed, structurally identical sides are the same object
and short-circuit to "equivalent" without any SAT query (counted as
``solver_syntactic_equivalences`` in :data:`repro.metrics.COUNTERS`).
Most of the remaining pairs are proven by a case split on the branch
conditions both sides share, also without SAT
(``solver_split_equivalences``).  ``None`` means no divergence was found:
the pair is proven equivalent, or its query ran out of the conflict budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.metrics import COUNTERS, declare
from repro.smt import terms as t
from repro.smt.bitblast import BitBlaster
from repro.smt.evaluate import evaluate
from repro.smt.sat import SatSolver
from repro.smt.simplify import _assume, simplify
from repro.smt.terms import Term

Value = Union[int, bool]


declare(
    "solver_checks",
    # Actual CDCL ``solve`` calls: the syntactic fast paths in
    # :func:`find_divergence` keep this at zero for structurally identical
    # terms (asserted by the unit tests).
    "solver_sat_invocations",
    # Conflicts those calls hit: the search work behind the invocations.
    "solver_sat_conflicts",
    "solver_syntactic_equivalences",
    "solver_constant_verdicts",
    # Pairs answered by the process-wide equivalence-verdict memo with a
    # proof.
    "solver_equivalence_cache_hits",
    # Pairs answered by the memo's record of an exhausted budget: an
    # abstention repeated, not a proof.
    "solver_hard_memo_hits",
    # Pairs proven equivalent by the case split, without the SAT solver.
    "solver_split_equivalences",
    # Queries cut short by a ``max_conflicts`` budget (verdict UNKNOWN).
    "solver_budget_exhausted",
)


class CheckResult(Enum):
    """Outcome of a satisfiability check.

    ``UNKNOWN`` means a ``max_conflicts`` budget cut the search short: the
    query is neither proven satisfiable nor unsatisfiable.  It is never
    returned by an unbudgeted check.
    """

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class Model:
    """A satisfying assignment: symbol name -> concrete value."""

    values: Dict[str, Value] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Value:
        return self.values.get(name, 0)

    def get(self, name: str, default: Value = 0) -> Value:
        return self.values.get(name, default)

    def __contains__(self, name: str) -> bool:  # pragma: no cover - trivial
        return name in self.values

    def __iter__(self):  # pragma: no cover - trivial
        return iter(self.values)

    def items(self):  # pragma: no cover - trivial
        return self.values.items()


class Solver:
    """Accumulate constraints and decide satisfiability incrementally."""

    def __init__(self) -> None:
        self._constraints: List[Term] = []
        self._model: Optional[Model] = None
        # Incremental state: one blaster + SAT solver per Solver lifetime.
        self._blaster: Optional[BitBlaster] = None
        self._sat: Optional[SatSolver] = None
        #: How many of ``self._constraints`` have been processed.
        self._processed = 0
        #: Index into the builder's clause list already fed to the SAT solver.
        self._clauses_fed = 0
        #: Set when an added constraint simplifies to FALSE.
        self._trivially_unsat = False

    # -- constraint management ------------------------------------------------

    def add(self, *constraints: Term) -> None:
        """Add Boolean constraints to the solver."""

        for constraint in constraints:
            if not constraint.sort.is_bool():
                raise TypeError("solver constraints must be Boolean terms")
            self._constraints.append(constraint)

    # -- solving ---------------------------------------------------------------

    def _ensure_engine(self) -> None:
        if self._blaster is None:
            self._blaster = BitBlaster()
            self._sat = SatSolver()

    def _sync_clauses(self) -> None:
        """Feed CNF clauses produced since the last sync to the SAT solver."""

        assert self._blaster is not None and self._sat is not None
        cnf = self._blaster.builder.cnf
        self._sat.ensure_num_vars(cnf.num_vars)
        if self._clauses_fed < len(cnf.clauses):
            self._sat.add_clauses(cnf.clauses[self._clauses_fed:])
            self._clauses_fed = len(cnf.clauses)

    def _assert_pending(self) -> None:
        """Simplify and bit-blast constraints added since the last check."""

        while self._processed < len(self._constraints):
            constraint = self._constraints[self._processed]
            self._processed += 1
            reduced = simplify(constraint)
            if reduced is t.TRUE:
                continue
            if reduced is t.FALSE:
                self._trivially_unsat = True
                continue
            self._ensure_engine()
            self._blaster.assert_term(reduced)

    def check(
        self, *extra: Term, max_conflicts: Optional[int] = None
    ) -> CheckResult:
        """Check satisfiability of the conjunction of all constraints.

        ``extra`` constraints hold for this check only; they are encoded as
        assumption literals so they never pollute the persistent CNF.
        ``max_conflicts`` bounds the CDCL search; an exhausted budget
        yields :data:`CheckResult.UNKNOWN` instead of an answer.
        """

        COUNTERS["solver_checks"] += 1
        self._assert_pending()
        if self._trivially_unsat:
            self._model = None
            return CheckResult.UNSAT

        assumptions: List[int] = []
        extra_reduced: List[Term] = []
        for term in extra:
            if not term.sort.is_bool():
                raise TypeError("solver constraints must be Boolean terms")
            reduced = simplify(term)
            if reduced is t.TRUE:
                continue
            if reduced is t.FALSE:
                self._model = None
                COUNTERS["solver_constant_verdicts"] += 1
                return CheckResult.UNSAT
            extra_reduced.append(reduced)

        if self._sat is None and not extra_reduced:
            # Nothing was ever asserted: trivially satisfiable.
            self._model = Model({})
            COUNTERS["solver_constant_verdicts"] += 1
            return CheckResult.SAT

        self._ensure_engine()
        # Tseitin definitions are biconditional, so defining an assumption
        # literal adds no top-level assertion -- it only names the formula.
        for reduced in extra_reduced:
            assumptions.append(self._blaster.bool_literal(reduced))

        COUNTERS["solver_sat_invocations"] += 1
        self._sync_clauses()
        result = self._sat.solve(assumptions=assumptions, max_conflicts=max_conflicts)
        COUNTERS["solver_sat_conflicts"] += result.conflicts
        if not result.satisfiable:
            self._model = None
            if not result.complete:
                COUNTERS["solver_budget_exhausted"] += 1
                return CheckResult.UNKNOWN
            return CheckResult.UNSAT

        values: Dict[str, Value] = {}
        for name, bits in self._blaster.symbol_bits().items():
            value = 0
            for index, literal in enumerate(bits):
                if result.assignment.get(abs(literal), False) == (literal > 0):
                    value |= 1 << index
            values[name] = value
        for name, literal in self._blaster.bool_symbol_vars().items():
            values[name] = result.assignment.get(abs(literal), False) == (literal > 0)

        model = Model(values)
        # Sanity check the model against the *original* (unsimplified)
        # constraints: this guards against bit-blasting bugs and against
        # unsound rewrites in the persistent simplifier cache alike.
        for constraint in itertools.chain(self._constraints[: self._processed], extra):
            if not evaluate(constraint, model.values, default=0):
                raise RuntimeError(
                    "internal SMT error: SAT model does not satisfy the formula"
                )
        self._model = model
        return CheckResult.SAT

    def decide(
        self, *extra: Term, max_conflicts: Optional[int] = None
    ) -> CheckResult:
        """:meth:`check` without keeping the model.  Nothing in the package
        calls it; it stays only because the benchmark tracer names it."""

        verdict = self.check(*extra, max_conflicts=max_conflicts)
        self._model = None
        return verdict

    def model(self) -> Model:
        """Return the model from the last successful :meth:`check`."""

        if self._model is None:
            raise RuntimeError("no model available: last check was unsat or not run")
        return self._model


# ---------------------------------------------------------------------------
# Equivalence checking helpers (the core of translation validation)
# ---------------------------------------------------------------------------

#: Conflict budget for equivalence queries (:func:`find_divergence`).
#: Over the 1920 programs of the clean perfbench pool, 464 validation
#: queries got past the syntactic paths and the memo.  Sent to SAT they took 64761 conflicts, and 39 of them ran out
#: of this budget; the case split (:func:`_split_equivalent`) settles all
#: but one, which SAT then decides in 10 conflicts.  A rare snapshot pair
#: still produces a genuinely hard instance (tens of thousands of
#: conflicts, minutes of wall clock) out of which no witness ever comes.
#: Exhausting the budget yields UNKNOWN, which the equivalence layer
#: treats as "no divergence found": the oracle trades a theoretical
#: missed bug for never producing a false alarm and never hanging a
#: campaign — the same trade Gauntlet makes by running Z3 under a
#: timeout.  The budget is a deterministic conflict *count*, not wall
#: clock, so ``jobs=1`` and ``jobs=N`` still agree on every verdict.
EQUIVALENCE_CONFLICT_BUDGET = 512

#: Memo value for pairs whose query exhausted the conflict budget.
_HARD = "hard"
#: Memo value for pairs the case split failed to prove.
_SPLIT_FAILED = "split-failed"

#: Process-wide equivalence-verdict memo: ``(left, right) -> True`` for
#: pairs proven equivalent, or :data:`_HARD` for pairs whose query
#: exhausted the conflict budget (a pathological pair is paid for at most
#: once per process).  Equivalence
#: is a semantic fact about the interned term pair, so the memo is safe
#: campaign-lifetime; divergence verdicts are not stored because their
#: value is the witness, which must be re-derived on a fresh solver to
#: stay scheduler-independent.  :data:`_SPLIT_FAILED` marks a pair whose
#: case split (a pure function of the pair) already failed, so the next
#: query of it goes straight to SAT; a later UNSAT or UNKNOWN verdict
#: overwrites the marker.
_EQUIV_CACHE: Dict[Tuple[Term, Term], object] = {}
_EQUIV_CACHE_LIMIT = 200_000

def _remember_equivalent(left: Term, right: Term, value: object = True) -> None:
    if len(_EQUIV_CACHE) >= _EQUIV_CACHE_LIMIT:
        _EQUIV_CACHE.clear()
    _EQUIV_CACHE[(left, right)] = value


def clear_equivalence_cache() -> None:
    """Drop the process-wide equivalence-verdict memo."""

    _EQUIV_CACHE.clear()


#: Cofactor pairs one case split (:func:`_split_equivalent`) may visit
#: before it hands the pair to the SAT solver.  No proof over either
#: perfbench pool needed more than 34.  Like the conflict budget it is a
#: count, so every scheduler makes the same attempts.
SPLIT_COFACTOR_BUDGET = 64


def _branch_atoms(term: Term) -> Dict[Term, int]:
    """How often ``term`` branches on each Boolean atom.

    An atom is a leaf of an ``ite`` condition below its ``and``, ``or``
    and ``not`` connectives, counted once per occurrence in each distinct
    ``ite`` node.  The dict is in first-occurrence order of a preorder
    walk, which is what breaks ties between atoms.
    """

    counts: Dict[Term, int] = {}
    seen = set()

    def walk(node: Term) -> None:
        if not node.children or id(node) in seen:
            return
        seen.add(id(node))
        if node.op == "ite":
            conditions = [node.children[0]]
            while conditions:
                cond = conditions.pop()
                if cond.op in ("and", "or", "not"):
                    conditions.extend(reversed(cond.children))
                else:
                    counts[cond] = counts.get(cond, 0) + 1
        for child in node.children:
            walk(child)

    walk(term)
    return counts


def _split_equivalent(left: Term, right: Term) -> bool:
    """Prove ``left`` and ``right`` equivalent by case splits, without SAT.

    Both sides are simplified; while they differ, the atom both branch on
    most often is fixed to true and then to false (simplify's own
    substitution), each side is re-simplified, and both cofactor pairs
    must be proven the same way.  A branch is proven when its sides are
    the same interned term.  This is Shannon expansion, so it only ever
    proves pairs that are equivalent; ``False`` means "not proven" (no
    shared atom left, or :data:`SPLIT_COFACTOR_BUDGET` spent), and the
    pair goes to the SAT solver.
    """

    budget = SPLIT_COFACTOR_BUDGET

    def prove(left: Term, right: Term) -> bool:
        nonlocal budget
        if left is right:
            return True
        right_atoms = _branch_atoms(right)
        atom, best = None, 0
        for candidate, count in _branch_atoms(left).items():
            other = right_atoms.get(candidate)
            if other and count + other > best:
                atom, best = candidate, count + other
        if atom is None:
            return False
        for value in (t.TRUE, t.FALSE):
            budget -= 1
            if budget < 0:
                return False
            if not prove(
                simplify(_assume(left, {atom: value})),
                simplify(_assume(right, {atom: value})),
            ):
                return False
        return True

    return prove(simplify(left), simplify(right))


def find_divergence(left: Term, right: Term) -> Optional[Model]:
    """Search for an assignment under which ``left`` and ``right`` differ.

    Returns a witness model, or ``None`` when no divergence was found: the
    pair is proven equivalent, or its query ran out of
    :data:`EQUIVALENCE_CONFLICT_BUDGET` (counted as
    ``solver_budget_exhausted``).

    The cheap paths come first and make no SAT query.  Hash-consing makes
    structurally identical terms the same object, before or after
    simplification.  The memo answers a pair proven before, or one whose
    query already exhausted the budget, an abstention counted apart from
    the proofs.  The case split proves most of the rest, and a split proof
    feeds the memo.  What is left is solved on a fresh solver, so the
    witness depends on the pair alone.
    """

    if left.sort != right.sort:
        raise TypeError("cannot compare terms of different sorts")
    # Simplification is memoised process-wide, so this is cheap for terms
    # the validator has seen before; identical normal forms are equivalent.
    if left is right or simplify(left) is simplify(right):
        COUNTERS["solver_syntactic_equivalences"] += 1
        return None
    memo = _EQUIV_CACHE.get((left, right))
    if memo is True:
        COUNTERS["solver_equivalence_cache_hits"] += 1
        return None
    if memo is _HARD:
        COUNTERS["solver_hard_memo_hits"] += 1
        return None
    if memo is not _SPLIT_FAILED:
        if _split_equivalent(left, right):
            COUNTERS["solver_split_equivalences"] += 1
            _remember_equivalent(left, right)
            return None
        # Remembered, so the pair's next query goes straight to SAT.
        _remember_equivalent(left, right, value=_SPLIT_FAILED)
    solver = Solver()
    solver.add(t.Ne(left, right))
    verdict = solver.check(max_conflicts=EQUIVALENCE_CONFLICT_BUDGET)
    if verdict == CheckResult.SAT:
        return solver.model()
    # UNSAT proves equivalence; UNKNOWN marks the pair hard so no later
    # walk re-pays the exhausted search (either way, there is no witness to
    # report — the oracle's bias is "no false alarms").
    _remember_equivalent(
        left, right, value=True if verdict == CheckResult.UNSAT else _HARD
    )
    return None


def all_equivalent(pairs: Iterable[Tuple[Term, Term]]) -> bool:
    """Whether every ``(left, right)`` pair is equivalent.  Nothing in the
    package calls it; it stays only because the benchmark tracer names it."""

    return all(find_divergence(left, right) is None for left, right in pairs)
