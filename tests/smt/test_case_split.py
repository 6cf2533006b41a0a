"""The case split that settles equivalence queries before the SAT solver.

``_split_equivalent`` fixes the Boolean atom both sides branch on most
often to true and to false, re-simplifies, and recurses until each pair of
cofactors is one interned term.  It is Shannon expansion, so it may only
prove pairs that are equivalent; everything it cannot settle goes to the
SAT query unchanged.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import smt
from repro.metrics import COUNTERS
from repro.smt import all_equivalent, clear_equivalence_cache, find_divergence
from repro.smt.evaluate import evaluate
from repro.smt import solver
from repro.smt.solver import _split_equivalent

from test_simplify_properties import WIDTH, assignments, bool_terms, bv_terms


@pytest.fixture(autouse=True, scope="module")
def one_term_generation():
    """Run this module on an empty hash-cons table.

    Other modules hold terms built at import, and a test that clears the
    table (``clear_term_caches``) leaves them behind; the simplifier's
    memos then hold entries for those terms.  A term built here could meet
    such a twin, equal but not identical, which the simplifier's identity
    checks do not expect.  Every term of this module is therefore built
    after this clear: in the tests, or by strategies that ``st.deferred``
    builds at their first draw.
    """

    smt.clear_term_caches()


def bv8(name):
    return smt.BitVecSym(name, 8)


def c8(value):
    return smt.BitVecVal(value, 8)


def c16(value):
    return smt.BitVecVal(value, 16)


def recorded_predication_pair():
    """A Predication snapshot pair that exhausts the 512-conflict budget.

    Both sides wrap the same header write in one output expression ``W``;
    the pass only rearranged the nested branches around ``t4_action == 2``.
    """

    h_a, h_b = bv8("h.a"), bv8("h.b")
    h_c, eth_c = smt.BitVecSym("h.c", 16), smt.BitVecSym("undef_eth.c", 16)
    valid = smt.BoolSym("h.$valid")
    t4_action, t4_key_0, t4_key_1 = bv8("t4_action"), bv8("t4_key_0"), bv8("t4_key_1")
    t4_value = bv8("t4_set_field1_val")
    t5_action, t5_key_0, t5_value = bv8("t5_action"), bv8("t5_key_0"), bv8("t5_set_field1_val")

    def wrap(x):
        field = smt.Ite(
            smt.And(smt.Eq(h_a, t5_key_0), smt.Eq(t5_action, c8(1))),
            t5_value,
            smt.Ite(
                smt.And(smt.Eq(h_a, t4_key_0), smt.Eq(h_b, t4_key_1)),
                smt.Ite(smt.Eq(t4_action, c8(1)), t4_value, x),
                h_b,
            ),
        )
        chosen = smt.Ite(smt.Ult(field, smt.Extract(12, 5, eth_c)), h_c, c16(14580))
        return smt.Ite(
            valid, smt.Add(smt.BvXor(c16(51221), chosen), smt.Mul(eth_c, c16(7))), c16(0)
        )

    is_two = smt.Eq(t4_action, c8(2))
    a_is_one = smt.Eq(h_a, c8(1))
    b_is_159 = smt.Eq(h_b, c8(159))
    left = wrap(smt.Ite(smt.And(is_two, a_is_one), smt.Ite(b_is_159, c8(44), c8(176)), h_b))
    right = wrap(
        smt.Ite(
            is_two,
            smt.Ite(
                smt.And(a_is_one, smt.Not(b_is_159)),
                c8(176),
                smt.Ite(smt.And(a_is_one, b_is_159), c8(44), h_b),
            ),
            h_b,
        )
    )
    return left, right


def grew(before, name):
    return COUNTERS[f"solver_{name}"] - before[f"solver_{name}"]


class TestRecordedPair:
    """The pair ran out of the conflict budget through both entry points."""

    def test_all_equivalent_settles_it_without_sat(self):
        clear_equivalence_cache()
        before = dict(COUNTERS)
        assert all_equivalent([recorded_predication_pair()]) is True
        assert grew(before, "sat_invocations") == 0
        assert grew(before, "budget_exhausted") == 0
        assert grew(before, "batched_checks") == 0
        assert grew(before, "split_equivalences") == 1

    def test_find_divergence_settles_it_without_sat(self):
        clear_equivalence_cache()
        before = dict(COUNTERS)
        assert find_divergence(*recorded_predication_pair()) is None
        assert grew(before, "sat_invocations") == 0
        assert grew(before, "budget_exhausted") == 0
        assert grew(before, "split_equivalences") == 1

    def test_the_proof_feeds_the_memo(self):
        clear_equivalence_cache()
        pair = recorded_predication_pair()
        assert find_divergence(*pair) is None
        before = dict(COUNTERS)
        assert all_equivalent([pair]) is True
        assert grew(before, "equivalence_cache_hits") == 1
        assert grew(before, "split_equivalences") == 0

    def test_constraints_bypass_the_split(self):
        # The split proves unconditional equivalence only; a query narrowed
        # by extra constraints goes to the solver as before.
        clear_equivalence_cache()
        left, right = recorded_predication_pair()
        before = dict(COUNTERS)
        assert find_divergence(left, right, [smt.BoolSym("h.$valid")]) is None
        assert grew(before, "split_equivalences") == 0
        assert grew(before, "sat_invocations") == 1


class TestWhatTheSplitCannotProve:
    def test_no_shared_branch_atom(self):
        x = bv8("x")
        assert not _split_equivalent(smt.Add(x, x), smt.Mul(x, c8(2)))

    def test_a_real_difference_behind_a_shared_atom(self):
        x, p = bv8("x"), smt.BoolSym("p")
        left = smt.Ite(p, smt.Add(x, c8(1)), x)
        right = smt.Ite(p, smt.Add(x, c8(2)), x)
        assert not _split_equivalent(left, right)
        witness = find_divergence(left, right)
        assert witness is not None and witness["p"] is True

    def test_a_failed_split_is_not_retried(self, monkeypatch):
        # The batch fails to split the pair and SAT finds the divergence;
        # the walk that follows asks SAT for the witness without splitting
        # the pair again.
        clear_equivalence_cache()
        calls = []

        def counting_split(left, right):
            calls.append((left, right))
            return _split_equivalent(left, right)

        monkeypatch.setattr(solver, "_split_equivalent", counting_split)
        x, p = bv8("x"), smt.BoolSym("p")
        left = smt.Ite(p, smt.Add(x, c8(1)), x)
        right = smt.Ite(p, smt.Add(x, c8(2)), x)
        assert all_equivalent([(left, right)]) is False
        witness = find_divergence(left, right)
        assert witness is not None and witness["p"] is True
        assert len(calls) == 1

    def test_a_sat_verdict_replaces_the_failed_split(self):
        clear_equivalence_cache()
        x = bv8("x")
        pair = (smt.Add(x, x), smt.Mul(x, c8(2)))
        before = dict(COUNTERS)
        assert all_equivalent([pair]) is True
        assert grew(before, "sat_invocations") == 1
        before = dict(COUNTERS)
        assert find_divergence(*pair) is None
        assert grew(before, "equivalence_cache_hits") == 1
        assert grew(before, "sat_invocations") == 0


BINARY = [smt.Add, smt.Sub, smt.Mul, smt.BvAnd, smt.BvOr, smt.BvXor, smt.Shl, smt.LShr]


@st.composite
def lifted_pairs(draw):
    """``op(ite(c, a, b), d)`` against ``ite(c, op(a, d), op(b, d))``.

    Equivalent, and simplify has no rule that lifts an ``ite`` out of an
    operator, so only a case split on the atoms of ``c`` (or SAT) shows it.
    """

    op = draw(st.sampled_from(BINARY))
    cond = draw(bool_terms(1))
    then, orelse, other = draw(bv_terms(1)), draw(bv_terms(1)), draw(bv_terms(1))
    return op(smt.Ite(cond, then, orelse), other), smt.Ite(cond, op(then, other), op(orelse, other))


@settings(max_examples=200, deadline=None)
@given(
    pair=st.deferred(lambda: st.one_of(lifted_pairs(), st.tuples(bv_terms(), bv_terms()))),
    envs=st.lists(assignments(), min_size=1, max_size=8),
)
def test_split_proofs_hold_under_every_assignment(pair, envs):
    left, right = pair
    if _split_equivalent(left, right):
        for env in envs:
            assert evaluate(left, env) == evaluate(right, env)


@settings(max_examples=100, deadline=None)
@given(pair=lifted_pairs())
def test_a_planted_difference_is_never_split_proven(pair):
    left, right = pair
    # Bit 0 flipped under every assignment, in every cofactor the split
    # visits.  (A difference only some assignments show can cost the SAT
    # search more than its conflict budget on these terms, and the test
    # would then measure the budget instead of the split.)
    planted = smt.BvXor(right, smt.BitVecVal(1, WIDTH))
    assert not _split_equivalent(left, planted)
    clear_equivalence_cache()
    witness = find_divergence(left, planted)
    assert witness is not None
    assert evaluate(left, witness.values) != evaluate(planted, witness.values)
