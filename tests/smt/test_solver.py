"""Unit and property tests for the high-level SMT solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import smt
from repro.metrics import COUNTERS
from repro.smt import CheckResult, Solver, clear_equivalence_cache, find_divergence
from repro.smt.evaluate import evaluate
from repro.smt.solver import EQUIVALENCE_CONFLICT_BUDGET, all_equivalent


X = smt.BitVecSym("x", 8)
Y = smt.BitVecSym("y", 8)
ONE = smt.BitVecVal(1, 8)
TWO = smt.BitVecVal(2, 8)


def fresh_state():
    """Clear the equivalence memo; return a reading of the counters."""

    clear_equivalence_cache()
    return dict(COUNTERS)


def since(before, name):
    """How much the solver counter ``name`` grew since the ``before`` reading."""

    return COUNTERS[f"solver_{name}"] - before[f"solver_{name}"]


class TestCheck:
    def test_trivially_sat(self):
        solver = Solver()
        assert solver.check() == CheckResult.SAT

    def test_simple_equation(self):
        solver = Solver()
        solver.add(smt.Eq(smt.Add(X, smt.BitVecVal(1, 8)), smt.BitVecVal(5, 8)))
        assert solver.check() == CheckResult.SAT
        assert solver.model()["x"] == 4

    def test_unsat_constraint(self):
        solver = Solver()
        solver.add(smt.Eq(X, smt.BitVecVal(1, 8)))
        solver.add(smt.Eq(X, smt.BitVecVal(2, 8)))
        assert solver.check() == CheckResult.UNSAT

    def test_model_satisfies_all_constraints(self):
        solver = Solver()
        constraints = [
            smt.Ult(X, smt.BitVecVal(100, 8)),
            smt.Ugt(X, smt.BitVecVal(50, 8)),
            smt.Eq(smt.BvAnd(X, smt.BitVecVal(1, 8)), smt.BitVecVal(1, 8)),
        ]
        solver.add(*constraints)
        assert solver.check() == CheckResult.SAT
        model = solver.model()
        for constraint in constraints:
            assert evaluate(constraint, model.values) is True

    def test_multiplication_inversion(self):
        solver = Solver()
        solver.add(smt.Eq(smt.Mul(X, smt.BitVecVal(3, 8)), smt.BitVecVal(30, 8)))
        solver.add(smt.Ult(X, smt.BitVecVal(16, 8)))
        assert solver.check() == CheckResult.SAT
        assert (solver.model()["x"] * 3) % 256 == 30

    def test_boolean_symbols(self):
        p = smt.BoolSym("p")
        q = smt.BoolSym("q")
        solver = Solver()
        solver.add(smt.Or(p, q))
        solver.add(smt.Not(p))
        assert solver.check() == CheckResult.SAT
        model = solver.model()
        assert model["q"] is True
        assert model["p"] is False

    def test_extra_constraints_do_not_persist(self):
        solver = Solver()
        solver.add(smt.Ult(X, smt.BitVecVal(10, 8)))
        assert solver.check(smt.Eq(X, smt.BitVecVal(200, 8))) == CheckResult.UNSAT
        assert solver.check() == CheckResult.SAT

    def test_an_assumption_narrows_a_query(self):
        # The terms differ only when x >= 16; assuming x < 16 makes them equal.
        solver = Solver()
        solver.add(smt.Ne(smt.BvAnd(X, smt.BitVecVal(0x0F, 8)), X))
        assert solver.check(smt.Ult(X, smt.BitVecVal(16, 8))) == CheckResult.UNSAT
        assert solver.check() == CheckResult.SAT
        assert solver.model()["x"] >= 16

    def test_non_boolean_constraint_rejected(self):
        solver = Solver()
        try:
            solver.add(X)
        except TypeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected TypeError")

    def test_division_constraint(self):
        solver = Solver()
        solver.add(smt.Eq(smt.UDiv(X, smt.BitVecVal(4, 8)), smt.BitVecVal(5, 8)))
        assert solver.check() == CheckResult.SAT
        assert solver.model()["x"] // 4 == 5

    def test_shift_constraint(self):
        solver = Solver()
        solver.add(smt.Eq(smt.Shl(smt.BitVecVal(1, 8), X), smt.BitVecVal(16, 8)))
        assert solver.check() == CheckResult.SAT
        assert solver.model()["x"] == 4


class TestEquivalence:
    def test_equivalent_rewrites(self):
        left = smt.Add(X, X)
        right = smt.Mul(X, smt.BitVecVal(2, 8))
        assert find_divergence(left, right) is None

    def test_inequivalent_terms_produce_witness(self):
        left = smt.Add(X, smt.BitVecVal(1, 8))
        right = smt.Add(X, smt.BitVecVal(2, 8))
        witness = find_divergence(left, right)
        assert witness is not None
        assert evaluate(left, witness.values) != evaluate(right, witness.values)

    def test_xor_swap_identity(self):
        # x ^ y ^ y == x
        left = smt.BvXor(smt.BvXor(X, Y), Y)
        assert find_divergence(left, X) is None

    def test_demorgan(self):
        p, q = smt.BoolSym("p"), smt.BoolSym("q")
        assert find_divergence(smt.Not(smt.And(p, q)), smt.Or(smt.Not(p), smt.Not(q))) is None

    def test_sort_mismatch_raises(self):
        with pytest.raises(TypeError):
            find_divergence(X, smt.BoolSym("p"))


class TestEquivalenceMemo:
    """What the process-wide memo answers, and what it must not."""

    def test_a_sat_proven_pair_is_answered_again_without_sat(self):
        # Semantically equal, but no branch to split on: SAT proves it.
        pair = (smt.Add(X, X), smt.Mul(X, TWO))
        before = fresh_state()
        assert find_divergence(*pair) is None
        assert since(before, "sat_invocations") == 1
        again = dict(COUNTERS)
        assert find_divergence(*pair) is None
        assert since(again, "sat_invocations") == 0
        assert since(again, "equivalence_cache_hits") == 1

    def test_hard_memo_hits_are_abstentions_not_proofs(self):
        # Multiplier commutativity: no branch to split on, and more than
        # the conflict budget for this CDCL, so the query ends UNKNOWN.
        hard = (smt.Mul(X, Y), smt.Mul(Y, X))
        before = fresh_state()
        assert find_divergence(*hard) is None
        assert since(before, "budget_exhausted") == 1
        again = dict(COUNTERS)
        # Later asks come from the hard memo without re-paying the search,
        # and none counts as a proof.
        assert find_divergence(*hard) is None
        assert find_divergence(*hard) is None
        assert since(again, "sat_invocations") == 0
        assert since(again, "budget_exhausted") == 0
        assert since(again, "equivalence_cache_hits") == 0
        assert since(again, "hard_memo_hits") == 2

    def test_a_divergent_pair_is_never_memoised(self):
        bad = (smt.Add(X, ONE), smt.Add(X, TWO))
        fresh_state()
        assert find_divergence(*bad) is not None
        again = dict(COUNTERS)
        assert find_divergence(*bad) is not None
        assert since(again, "sat_invocations") == 1
        assert since(again, "equivalence_cache_hits") == 0
        assert since(again, "hard_memo_hits") == 0

    def test_a_witness_is_the_same_after_unrelated_solves(self):
        # The witness is a function of the pair alone, not of what earlier
        # queries solved or memoised.
        bad = (smt.BvAnd(X, Y), smt.BvOr(X, Y))
        fresh_state()
        baseline = find_divergence(*bad)
        assert baseline is not None
        fresh_state()
        for left, right in (
            (smt.Add(X, X), smt.Mul(X, TWO)),
            (smt.BvXor(X, Y), smt.BvXor(Y, X)),
            (smt.Add(X, ONE), smt.Add(X, TWO)),
        ):
            find_divergence(left, right)
        again = find_divergence(*bad)
        assert again is not None
        assert dict(again.items()) == dict(baseline.items())


def found_pair():
    """An 8-bit pair that differs in bit 0 whenever ``p`` holds, yet runs
    out of the conflict budget.  The case split proves the ``not p``
    cofactor and gives up on the other, ``x + x`` against ``(x + x) ^ 1``,
    which has no branch left to split on."""

    x, p, q = X, smt.BoolSym("p"), smt.BoolSym("q")
    zero_or_one = smt.Ite(q, smt.BitVecVal(0, 8), ONE)
    left = smt.Add(smt.Ite(smt.Not(p), zero_or_one, x), x)
    right = smt.BvXor(
        smt.Ite(smt.Not(p), smt.Add(zero_or_one, x), smt.Add(x, x)),
        smt.Ite(p, ONE, smt.BitVecVal(0, 8)),
    )
    return left, right


class TestBudgetAbstention:
    def test_a_real_divergence_ends_as_a_hard_memo_entry(self):
        before = fresh_state()
        assert find_divergence(*found_pair()) is None
        assert since(before, "sat_conflicts") == 512
        assert since(before, "budget_exhausted") == 1
        again = dict(COUNTERS)
        assert find_divergence(*found_pair()) is None
        assert since(again, "hard_memo_hits") == 1
        assert since(again, "sat_invocations") == 0

    @pytest.mark.xfail(
        strict=True,
        reason="abstains at the conflict budget until ROADMAP direction 3, "
        "step 1 (escalation) retries an UNKNOWN query at a larger budget",
    )
    def test_a_real_divergence_gets_a_witness(self):
        fresh_state()
        witness = find_divergence(*found_pair())
        assert witness is not None and witness["p"] is True


#: A pair only SAT proves, and a pair that differs.
PROVEN = (smt.Add(X, X), smt.Mul(X, TWO))
BAD = (smt.Add(X, ONE), smt.Add(X, TWO))


class TestTracerDelegates:
    """``all_equivalent`` and ``Solver.decide`` stay only because the
    benchmark tracer names them; they answer as the one solve path does."""

    def test_no_pairs_are_equivalent_without_solving(self):
        before = fresh_state()
        assert all_equivalent([]) is True
        assert since(before, "checks") == 0

    def test_equivalent_pairs(self):
        fresh_state()
        assert all_equivalent([(X, X), (smt.BvXor(smt.BvXor(X, Y), Y), X), PROVEN]) is True

    @pytest.mark.parametrize("position", [0, 2], ids=["bad0", "bad1"])
    def test_one_bad_pair_flips_it(self, position):
        pairs = [(X, X), PROVEN]
        pairs.insert(position, BAD)
        fresh_state()
        assert all_equivalent(pairs) is False

    def test_it_stops_at_the_first_divergence(self):
        # The pair proven before the divergence stays memoised; the pair
        # after it is never asked.
        unasked = (smt.Mul(X, smt.BitVecVal(3, 8)), smt.Add(smt.Add(X, X), X))
        before = fresh_state()
        assert all_equivalent([PROVEN, BAD, unasked]) is False
        assert since(before, "sat_invocations") == 2
        again = dict(COUNTERS)
        assert find_divergence(*PROVEN) is None
        assert since(again, "equivalence_cache_hits") == 1
        assert find_divergence(*unasked) is None
        assert since(again, "sat_invocations") == 1

    def test_a_sort_mismatch_raises(self):
        with pytest.raises(TypeError):
            all_equivalent([(X, smt.BoolSym("p"))])

    def test_decide_is_check_without_the_model(self):
        solver = Solver()
        solver.add(smt.Ult(X, TWO))
        assert solver.decide() == CheckResult.SAT
        with pytest.raises(RuntimeError):
            solver.model()
        assert solver.decide(smt.Eq(X, smt.BitVecVal(5, 8))) == CheckResult.UNSAT
        assert solver.check() == CheckResult.SAT
        assert solver.model()["x"] < 2

    def test_decide_abstains_at_the_budget(self):
        # Multiplier commutativity runs out of the equivalence budget.
        solver = Solver()
        solver.add(smt.Ne(smt.Mul(X, Y), smt.Mul(Y, X)))
        before = dict(COUNTERS)
        assert solver.decide(max_conflicts=EQUIVALENCE_CONFLICT_BUDGET) == CheckResult.UNKNOWN
        assert since(before, "budget_exhausted") == 1


@settings(max_examples=30, deadline=None)
@given(
    value=st.integers(min_value=0, max_value=255),
    offset=st.integers(min_value=0, max_value=255),
)
def test_solver_solves_linear_equations(value, offset):
    solver = Solver()
    target = smt.BitVecVal(value, 8)
    solver.add(smt.Eq(smt.Add(X, smt.BitVecVal(offset, 8)), target))
    assert solver.check() == CheckResult.SAT
    assert (solver.model()["x"] + offset) % 256 == value


@settings(max_examples=30, deadline=None)
@given(a=st.integers(min_value=0, max_value=255), b=st.integers(min_value=0, max_value=255))
def test_equivalence_of_commuted_addition(a, b):
    left = smt.Add(smt.Add(X, smt.BitVecVal(a, 8)), smt.BitVecVal(b, 8))
    right = smt.Add(smt.Add(X, smt.BitVecVal(b, 8)), smt.BitVecVal(a, 8))
    assert find_divergence(left, right) is None
