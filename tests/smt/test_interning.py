"""Invariants of term hash-consing and the persistent solver caches.

These pin down the contracts the validation hot path relies on:

* ``Term`` identity coincides with structural equality (hash-consing),
* ``simplify`` is idempotent and cache-consistent across calls,
* ``find_divergence`` answers syntactic equivalences with *zero* SAT
  solver invocations, and
* one incremental solver keeps answering checks as constraints and
  assumptions come and go.
"""

import copy
import pickle

from repro import smt
from repro.metrics import COUNTERS
from repro.smt import terms as t
from repro.smt.sat import SatSolver
from repro.smt.simplify import simplify
from repro.smt.solver import CheckResult, Solver, find_divergence


X = smt.BitVecSym("x", 8)
Y = smt.BitVecSym("y", 8)


def since(before, name):
    """How much the solver counter ``name`` grew since the ``before`` reading."""

    return COUNTERS[f"solver_{name}"] - before[f"solver_{name}"]


class TestInterning:
    def test_identical_construction_returns_same_object(self):
        left = smt.Add(smt.BitVecSym("a", 8), smt.BitVecVal(1, 8))
        right = smt.Add(smt.BitVecSym("a", 8), smt.BitVecVal(1, 8))
        assert left is right

    def test_structural_equality_is_pointer_identity(self):
        first = smt.Ite(smt.BoolSym("c"), X, Y)
        second = smt.Ite(smt.BoolSym("c"), X, Y)
        assert first == second
        assert first is second

    def test_different_terms_are_different_objects(self):
        assert smt.Add(X, Y) is not smt.Add(Y, X)
        assert smt.BitVecVal(3, 8) is not smt.BitVecVal(3, 16)

    def test_direct_term_construction_interns(self):
        # The simplifier rebuilds nodes through the raw constructor.
        raw = t.Term("bvadd", t.BitVecSort(8), (X, Y))
        assert raw is smt.Add(X, Y)

    def test_copy_and_deepcopy_preserve_identity(self):
        term = smt.Mul(X, smt.BitVecVal(3, 8))
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term

    def test_sorts_stay_canonical_through_pickles_and_copies(self):
        # Sorts compare by identity, so every route to a sort must end at
        # the interned one.
        sort = t.BitVecSort(8)
        for twin in (pickle.loads(pickle.dumps(sort)), copy.copy(sort), copy.deepcopy(sort)):
            assert twin is sort
        assert pickle.loads(pickle.dumps(t.BoolSort())) is t.BoolSort()
        term = smt.Ite(smt.BoolSym("c"), X, Y)
        assert pickle.loads(pickle.dumps(term)) is term

    def test_symbols_with_same_name_are_shared(self):
        assert smt.BitVecSym("hdr.h.a", 8) is smt.BitVecSym("hdr.h.a", 8)
        assert smt.BoolSym("p") is smt.BoolSym("p")

    def test_intern_table_grows_and_reports_size(self):
        before = smt.intern_table_size()
        smt.BitVecSym("completely_fresh_symbol_for_size_test", 8)
        assert smt.intern_table_size() == before + 1

    def test_clear_term_caches_keeps_engine_functional(self):
        smt.simplify(smt.Add(X, smt.BitVecVal(0, 8)))
        smt.clear_term_caches()
        assert smt.simplify_cache_size() == 0
        # TRUE/FALSE singletons stay canonical and solving still works.
        assert smt.BoolVal(True) is t.TRUE
        assert smt.find_divergence(smt.Add(X, Y), smt.Add(X, Y)) is None
        solver = Solver()
        solver.add(smt.Eq(X, smt.BitVecVal(9, 8)))
        assert solver.check() == CheckResult.SAT
        assert solver.model()["x"] == 9

    def test_clear_term_caches_drops_the_guard_walk_memo(self):
        from repro.smt.simplify import _GUARD_WALKS

        guard = smt.BoolSym("guard")
        assert simplify(smt.Ite(guard, smt.Ite(guard, X, Y), Y)) is smt.Ite(guard, X, Y)
        assert (guard, True) in _GUARD_WALKS
        smt.clear_term_caches()
        assert not _GUARD_WALKS


class TestSimplifyMemoisation:
    def test_simplify_idempotent(self):
        term = smt.Add(smt.Mul(X, smt.BitVecVal(1, 8)), smt.BitVecVal(0, 8))
        once = simplify(term)
        assert simplify(once) is once

    def test_simplify_cache_consistent_across_calls(self):
        term = smt.BvXor(smt.Add(X, Y), smt.Add(X, Y))
        assert simplify(term) is simplify(term)

    def test_shared_subdags_share_results(self):
        shared = smt.Add(X, smt.BitVecVal(0, 8))
        left = smt.Mul(shared, smt.BitVecVal(1, 8))
        right = smt.BvOr(shared, shared)
        # Both simplify through the shared child; results agree on it.
        assert simplify(left) is simplify(shared) is X
        assert simplify(right) is X

    def test_simplify_result_is_interned(self):
        folded = simplify(smt.Add(smt.BitVecVal(1, 8), smt.BitVecVal(2, 8)))
        assert folded is smt.BitVecVal(3, 8)


class TestSyntacticFastPath:
    def test_identical_terms_need_zero_sat_invocations(self):
        term = smt.Add(smt.Mul(X, Y), smt.BitVecVal(7, 8))
        before = dict(COUNTERS)
        assert find_divergence(term, term) is None
        assert since(before, "sat_invocations") == 0
        assert since(before, "syntactic_equivalences") == 1

    def test_structurally_equal_terms_need_zero_sat_invocations(self):
        left = smt.Concat(X, smt.Extract(3, 0, Y))
        right = smt.Concat(
            smt.BitVecSym("x", 8), smt.Extract(3, 0, smt.BitVecSym("y", 8))
        )
        before = dict(COUNTERS)
        assert find_divergence(left, right) is None
        assert since(before, "sat_invocations") == 0

    def test_equal_normal_forms_need_zero_sat_invocations(self):
        left = smt.Add(X, smt.BitVecVal(0, 8))
        right = smt.Mul(X, smt.BitVecVal(1, 8))
        before = dict(COUNTERS)
        assert find_divergence(left, right) is None
        assert since(before, "sat_invocations") == 0

    def test_genuine_divergence_still_solved(self):
        before = dict(COUNTERS)
        witness = find_divergence(X, smt.BvNot(X))
        assert witness is not None
        assert since(before, "sat_invocations") >= 1


def blocked_models(bound):
    """Every ``x < bound`` through one solver, each model blocked in turn."""

    solver = Solver()
    solver.add(smt.Ult(X, smt.BitVecVal(bound, 8)))
    values = []
    while solver.check() == CheckResult.SAT:
        values.append(solver.model()["x"])
        solver.add(smt.Ne(X, smt.BitVecVal(values[-1], 8)))
    return values


class TestIncrementalSolver:
    def test_blocked_models_stay_distinct_after_clause_reuse(self):
        assert sorted(blocked_models(6)) == [0, 1, 2, 3, 4, 5]

    def test_blocked_models_use_one_sat_solver(self):
        before = dict(COUNTERS)
        assert len(blocked_models(4)) == 4
        # 4 SAT answers + 1 final UNSAT, all on the same incremental solver.
        assert since(before, "sat_invocations") == 5

    def test_incremental_adds_after_check(self):
        solver = Solver()
        solver.add(smt.Ult(X, smt.BitVecVal(10, 8)))
        assert solver.check() == CheckResult.SAT
        solver.add(smt.Ugt(X, smt.BitVecVal(3, 8)))
        assert solver.check() == CheckResult.SAT
        assert 3 < solver.model()["x"] < 10
        solver.add(smt.Eq(X, smt.BitVecVal(0, 8)))
        assert solver.check() == CheckResult.UNSAT

    def test_assumptions_do_not_persist_across_checks(self):
        solver = Solver()
        solver.add(smt.Ult(X, smt.BitVecVal(100, 8)))
        assert solver.check(smt.Eq(X, smt.BitVecVal(5, 8))) == CheckResult.SAT
        assert solver.model()["x"] == 5
        assert solver.check(smt.Eq(X, smt.BitVecVal(200, 8))) == CheckResult.UNSAT
        assert solver.check() == CheckResult.SAT

    def test_sat_solver_incremental_clauses(self):
        solver = SatSolver(2, [[1, 2]])
        assert solver.solve().satisfiable
        solver.add_clause([-1])
        result = solver.solve()
        assert result.satisfiable
        assert result.assignment[2] is True
        solver.add_clause([-2])
        assert not solver.solve().satisfiable

    def test_sat_solver_assumptions_reusable(self):
        solver = SatSolver(2, [[1, 2]])
        assert not solver.solve(assumptions=[-1, -2]).satisfiable
        # The instance stays usable after an assumption failure.
        assert solver.solve(assumptions=[-1]).satisfiable
        assert solver.solve().satisfiable

    def test_sat_solver_grows_variables(self):
        solver = SatSolver(1, [[1]])
        assert solver.solve().satisfiable
        solver.ensure_num_vars(3)
        solver.add_clauses([[-1, 3], [-3, 2]])
        result = solver.solve()
        assert result.satisfiable
        assert result.assignment[2] is True


class TestCloneFreeSnapshots:
    def test_ast_clone_detached_and_equal(self):
        from repro.core.generator import GeneratorConfig, RandomProgramGenerator
        from repro.p4 import emit_program

        program = RandomProgramGenerator(GeneratorConfig(seed=5)).generate()
        snapshot = program.clone()
        assert emit_program(snapshot) == emit_program(program)
        snapshot.controls()[0].apply.statements.clear()
        assert emit_program(snapshot) != emit_program(program)

    def test_ast_clone_shares_immutable_types(self):
        from repro.p4 import ast
        from repro.p4.types import BitType

        declaration = ast.VariableDeclaration("v", BitType(8), ast.Constant(1, 8))
        cloned = declaration.clone()
        assert cloned is not declaration
        assert cloned.var_type is declaration.var_type  # frozen dataclass shared
        assert cloned.initializer is not declaration.initializer
