"""Unit and property tests for the high-level SMT solver."""

from hypothesis import given, settings, strategies as st

from repro import smt
from repro.smt import CheckResult, Solver, equivalent, find_divergence
from repro.smt.evaluate import evaluate
from repro.smt.solver import enumerate_models


X = smt.BitVecSym("x", 8)
Y = smt.BitVecSym("y", 8)


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

    def test_reset(self):
        solver = Solver()
        solver.add(smt.Eq(X, smt.BitVecVal(1, 8)))
        solver.reset()
        assert solver.constraints == []

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
        assert equivalent(left, right)

    def test_inequivalent_terms_produce_witness(self):
        left = smt.Add(X, smt.BitVecVal(1, 8))
        right = smt.Add(X, smt.BitVecVal(2, 8))
        witness = find_divergence(left, right)
        assert witness is not None
        assert evaluate(left, witness.values) != evaluate(right, witness.values)

    def test_xor_swap_identity(self):
        # x ^ y ^ y == x
        left = smt.BvXor(smt.BvXor(X, Y), Y)
        assert equivalent(left, X)

    def test_demorgan(self):
        p, q = smt.BoolSym("p"), smt.BoolSym("q")
        assert equivalent(smt.Not(smt.And(p, q)), smt.Or(smt.Not(p), smt.Not(q)))

    def test_divergence_respects_extra_constraints(self):
        # Terms differ only when x >= 16; constraining x < 16 makes them equal.
        left = smt.BvAnd(X, smt.BitVecVal(0x0F, 8))
        right = X
        constraint = smt.Ult(X, smt.BitVecVal(16, 8))
        assert find_divergence(left, right, [constraint]) is None
        assert find_divergence(left, right) is not None


class TestModelEnumeration:
    def test_enumerate_distinct_models(self):
        constraint = smt.Ult(X, smt.BitVecVal(4, 8))
        models = enumerate_models(constraint, [X], limit=10)
        values = sorted(model["x"] for model in models)
        assert values == [0, 1, 2, 3]

    def test_limit_respected(self):
        constraint = smt.Ult(X, smt.BitVecVal(100, 8))
        models = enumerate_models(constraint, [X], limit=5)
        assert len(models) == 5
        assert len({model["x"] for model in models}) == 5


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
    assert equivalent(left, right)
