"""Unit tests for the term simplifier."""

import random

from repro import smt
from repro.smt.evaluate import evaluate
from repro.smt.simplify import simplify


X = smt.BitVecSym("x", 8)
ZERO = smt.BitVecVal(0, 8)
ONE = smt.BitVecVal(1, 8)
ONES = smt.BitVecVal(0xFF, 8)


class TestConstantFolding:
    def test_add_constants(self):
        assert simplify(smt.Add(smt.BitVecVal(200, 8), smt.BitVecVal(100, 8))) == smt.BitVecVal(44, 8)

    def test_mul_constants(self):
        assert simplify(smt.Mul(smt.BitVecVal(7, 8), smt.BitVecVal(6, 8))) == smt.BitVecVal(42, 8)

    def test_udiv_by_zero_convention(self):
        assert simplify(smt.UDiv(ONE, ZERO)) == ONES

    def test_urem_by_zero_convention(self):
        assert simplify(smt.URem(smt.BitVecVal(9, 8), ZERO)) == smt.BitVecVal(9, 8)

    def test_concat_constants(self):
        folded = simplify(smt.Concat(smt.BitVecVal(0xAB, 8), smt.BitVecVal(0xCD, 8)))
        assert folded == smt.BitVecVal(0xABCD, 16)

    def test_extract_constant(self):
        assert simplify(smt.Extract(7, 4, smt.BitVecVal(0xAB, 8))) == smt.BitVecVal(0xA, 4)

    def test_shift_constants(self):
        assert simplify(smt.Shl(ONE, smt.BitVecVal(3, 8))) == smt.BitVecVal(8, 8)
        assert simplify(smt.LShr(smt.BitVecVal(128, 8), smt.BitVecVal(3, 8))) == smt.BitVecVal(16, 8)

    def test_comparison_constants(self):
        assert simplify(smt.Ult(ONE, smt.BitVecVal(2, 8))) == smt.BoolVal(True)
        assert simplify(smt.Eq(ONE, ZERO)) == smt.BoolVal(False)


class TestIdentities:
    def test_add_zero(self):
        assert simplify(smt.Add(X, ZERO)) == X
        assert simplify(smt.Add(ZERO, X)) == X

    def test_sub_self_is_zero(self):
        assert simplify(smt.Sub(X, X)) == ZERO

    def test_mul_by_zero_and_one(self):
        assert simplify(smt.Mul(X, ZERO)) == ZERO
        assert simplify(smt.Mul(ONE, X)) == X

    def test_and_identities(self):
        assert simplify(smt.BvAnd(X, ZERO)) == ZERO
        assert simplify(smt.BvAnd(X, ONES)) == X
        assert simplify(smt.BvAnd(X, X)) == X

    def test_or_identities(self):
        assert simplify(smt.BvOr(X, ZERO)) == X
        assert simplify(smt.BvOr(X, ONES)) == ONES

    def test_xor_self_is_zero(self):
        assert simplify(smt.BvXor(X, X)) == ZERO

    def test_double_not(self):
        assert simplify(smt.BvNot(smt.BvNot(X))) == X

    def test_full_extract_is_identity(self):
        assert simplify(smt.Extract(7, 0, X)) == X

    def test_eq_self_is_true(self):
        assert simplify(smt.Eq(X, X)) == smt.BoolVal(True)

    def test_ult_zero_is_false(self):
        assert simplify(smt.Ult(X, ZERO)) == smt.BoolVal(False)


class TestBooleanSimplification:
    def test_and_with_false(self):
        a = smt.BoolSym("a")
        assert simplify(smt.And(a, smt.BoolVal(False))) == smt.BoolVal(False)

    def test_and_with_true_dropped(self):
        a = smt.BoolSym("a")
        assert simplify(smt.And(a, smt.BoolVal(True))) == a

    def test_or_with_true(self):
        a = smt.BoolSym("a")
        assert simplify(smt.Or(a, smt.BoolVal(True))) == smt.BoolVal(True)

    def test_duplicate_conjuncts_removed(self):
        a, b = smt.BoolSym("a"), smt.BoolSym("b")
        simplified = simplify(smt.And(a, b, a))
        assert simplified == smt.And(a, b)

    def test_ite_constant_condition(self):
        a, b = smt.BitVecSym("a", 8), smt.BitVecSym("b", 8)
        assert simplify(smt.Ite(smt.BoolVal(True), a, b)) == a
        assert simplify(smt.Ite(smt.BoolVal(False), a, b)) == b

    def test_ite_same_branches(self):
        cond = smt.BoolSym("c")
        a = smt.BitVecSym("a", 8)
        assert simplify(smt.Ite(cond, a, a)) == a

    def test_bool_ite_collapses_to_condition(self):
        cond = smt.BoolSym("c")
        assert simplify(smt.Ite(cond, smt.BoolVal(True), smt.BoolVal(False))) == cond
        assert simplify(smt.Ite(cond, smt.BoolVal(False), smt.BoolVal(True))) == smt.Not(cond)

    def test_nested_folding(self):
        # (1 + 2) * 3 == 9 should fold completely even when nested under eq.
        nine = smt.Mul(smt.Add(ONE, smt.BitVecVal(2, 8)), smt.BitVecVal(3, 8))
        assert simplify(smt.Eq(nine, smt.BitVecVal(9, 8))) == smt.BoolVal(True)


class TestTermsFromBeforeAClear:
    """Terms interned before ``clear_term_caches()`` equal their fresh twins
    without being them; simplifying a mix of both must still terminate."""

    OPS = (smt.Add, smt.Sub, smt.BvAnd, smt.BvOr, smt.BvXor)

    def test_mixed_generations_simplify_to_a_fixpoint(self):
        stale_bv = [smt.BitVecSym(name, 8) for name in ("x", "y", "z")]
        stale_bool = [smt.BoolSym(name) for name in ("p", "q")]
        smt.clear_term_caches()
        rng = random.Random(7)

        def bv_leaf():
            roll = rng.random()
            if roll < 0.35:
                return rng.choice(stale_bv)
            if roll < 0.7:
                return smt.BitVecSym(rng.choice(("x", "y", "z")), 8)
            return smt.BitVecVal(rng.randrange(256), 8)

        def bool_leaf():
            if rng.random() < 0.5:
                return rng.choice(stale_bool)
            return smt.BoolSym(rng.choice(("p", "q")))

        def bool_term(depth):
            if depth == 0 or rng.random() < 0.3:
                return bool_leaf()
            roll = rng.random()
            if roll < 0.4:
                return smt.Eq(bv_term(depth - 1), bv_term(depth - 1))
            if roll < 0.6:
                return smt.Not(bool_term(depth - 1))
            return smt.And(bool_term(depth - 1), bool_term(depth - 1))

        def bv_term(depth):
            if depth == 0 or rng.random() < 0.2:
                return bv_leaf()
            if rng.random() < 0.5:
                return smt.Ite(bool_term(depth - 1), bv_term(depth - 1), bv_term(depth - 1))
            return rng.choice(self.OPS)(bv_term(depth - 1), bv_term(depth - 1))

        for _ in range(300):
            term = bv_term(4)
            env = {name: rng.randrange(256) for name in ("x", "y", "z")}
            env.update({name: rng.random() < 0.5 for name in ("p", "q")})
            assert evaluate(simplify(term), env) == evaluate(term, env)
