"""Differential tests: batched equivalence vs. the sequential oracle.

``smt.all_equivalent`` proves many (left, right) pairs on one incremental
solver with assumption literals.  Its *verdict* must always agree with the
sequential per-pair ``find_divergence`` walk, and batching must never
perturb the witnesses the sequential path reports — witness models are
solver-history-dependent, verdicts are not.
"""

import pytest

from repro import smt
from repro.metrics import COUNTERS
from repro.smt import all_equivalent, clear_equivalence_cache, find_divergence


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


EQUIVALENT_PAIRS = [
    # Syntactically identical (hash-consed to the same object).
    (smt.Add(X, ONE), smt.Add(X, ONE)),
    # Equal after simplification.
    (smt.Add(X, smt.BitVecVal(0, 8)), X),
    # Semantically equal, but only the solver can tell.
    (smt.Add(X, X), smt.Mul(X, TWO)),
    (smt.BvXor(X, Y), smt.BvXor(Y, X)),
]

INEQUIVALENT_PAIRS = [
    (smt.Add(X, ONE), smt.Add(X, TWO)),
    (smt.BvAnd(X, Y), smt.BvOr(X, Y)),
]


class TestVerdictsMatchSequential:
    def test_all_equivalent_on_equivalent_pairs(self):
        fresh_state()
        assert all_equivalent(EQUIVALENT_PAIRS) is True
        for left, right in EQUIVALENT_PAIRS:
            assert find_divergence(left, right) is None

    @pytest.mark.parametrize("bad", INEQUIVALENT_PAIRS)
    def test_one_bad_pair_flips_the_batch(self, bad):
        fresh_state()
        assert all_equivalent(EQUIVALENT_PAIRS + [bad]) is False
        assert find_divergence(*bad) is not None

    def test_empty_batch_is_equivalent_without_solving(self):
        before = fresh_state()
        assert all_equivalent([]) is True
        assert since(before, "batched_checks") == 0
        assert since(before, "sat_invocations") == 0

    def test_syntactic_pairs_skip_the_solver(self):
        before = fresh_state()
        pairs = [(smt.Add(X, ONE), smt.Add(X, ONE)), (smt.Add(X, smt.BitVecVal(0, 8)), X)]
        assert all_equivalent(pairs) is True
        assert since(before, "batched_checks") == 0
        assert since(before, "sat_invocations") == 0

    def test_sort_mismatch_raises_like_find_divergence(self):
        fresh_state()
        p = smt.BoolSym("p")
        with pytest.raises(TypeError):
            all_equivalent([(X, p)])
        with pytest.raises(TypeError):
            find_divergence(X, p)


class TestBatchingEconomics:
    def test_semantic_batch_is_one_batch_on_one_solver(self):
        before = fresh_state()
        semantic = [(smt.Add(X, X), smt.Mul(X, TWO)), (smt.BvXor(X, Y), smt.BvXor(Y, X))]
        assert all_equivalent(semantic) is True
        # One batch; each surviving pair is a focused per-field query on
        # the shared batch solver (never a ganged disjunction).
        assert since(before, "batched_checks") == 1
        assert since(before, "sat_invocations") == len(semantic)

    def test_pairs_proven_before_a_divergence_stay_memoised(self):
        before = fresh_state()
        good = (smt.Add(X, X), smt.Mul(X, TWO))
        bad = (smt.Add(X, ONE), smt.Add(X, TWO))
        assert all_equivalent([good, bad]) is False
        # The batch failed, but the pair proven before the divergence fed
        # the memo: re-checking it alone costs zero SAT invocations.
        invocations = COUNTERS["solver_sat_invocations"]
        assert all_equivalent([good]) is True
        assert COUNTERS["solver_sat_invocations"] == invocations
        assert since(before, "equivalence_cache_hits") >= 1

    def test_proven_pairs_are_memoised_for_the_campaign(self):
        before = fresh_state()
        semantic = [(smt.Add(X, X), smt.Mul(X, TWO))]
        assert all_equivalent(semantic) is True
        invocations = COUNTERS["solver_sat_invocations"]
        # Second look at the same pair: served by the equivalence memo.
        assert all_equivalent(semantic) is True
        assert COUNTERS["solver_sat_invocations"] == invocations
        assert since(before, "equivalence_cache_hits") >= 1
        # ... and the sequential oracle reads the same memo.
        assert find_divergence(*semantic[0]) is None
        assert COUNTERS["solver_sat_invocations"] == invocations

    def test_hard_memo_hits_are_abstentions_not_proofs(self):
        before = fresh_state()
        # Multiplier commutativity: no branch to split on, and more than
        # the conflict budget for this CDCL, so the query ends UNKNOWN.
        hard = (smt.Mul(X, Y), smt.Mul(Y, X))
        assert all_equivalent([hard]) is True
        assert since(before, "budget_exhausted") == 1
        again = dict(COUNTERS)
        # Both entry points answer later looks from the hard memo without
        # re-paying the search, and neither counts that as a proof.
        assert all_equivalent([hard]) is True
        assert find_divergence(*hard) is None
        assert since(again, "sat_invocations") == 0
        assert since(again, "equivalence_cache_hits") == 0
        assert since(again, "hard_memo_hits") == 2

    def test_sat_batches_are_never_memoised(self):
        fresh_state()
        bad = (smt.Add(X, ONE), smt.Add(X, TWO))
        assert all_equivalent([bad]) is False
        hits_before = COUNTERS["solver_equivalence_cache_hits"]
        assert all_equivalent([bad]) is False
        assert COUNTERS["solver_equivalence_cache_hits"] == hits_before


class TestWitnessDeterminism:
    def test_sequential_witness_unchanged_by_prior_batches(self):
        # The witness the sequential path reports must be a function of the
        # pair alone, not of whatever the shared batch solver learned.
        fresh_state()
        bad = (smt.BvAnd(X, Y), smt.BvOr(X, Y))
        baseline = find_divergence(*bad)
        assert baseline is not None
        fresh_state()
        all_equivalent(EQUIVALENT_PAIRS + [bad])
        again = find_divergence(*bad)
        assert again is not None
        assert dict(again.items()) == dict(baseline.items())
