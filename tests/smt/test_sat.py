"""Unit tests for the CDCL SAT solver."""

import hashlib
import random

import pytest

from repro.smt.sat import SatSolver, solve_cnf


def check_model(clauses, assignment):
    for clause in clauses:
        satisfied = any(
            (literal > 0) == assignment.get(abs(literal), False) for literal in clause
        )
        if not satisfied:
            return False
    return True


class TestBasicCases:
    def test_empty_formula_is_sat(self):
        assert solve_cnf(0, []).satisfiable

    def test_single_unit_clause(self):
        result = solve_cnf(1, [[1]])
        assert result.satisfiable
        assert result.assignment[1] is True

    def test_contradictory_units(self):
        assert not solve_cnf(1, [[1], [-1]]).satisfiable

    def test_empty_clause_is_unsat(self):
        assert not solve_cnf(1, [[1], []]).satisfiable

    def test_simple_implication_chain(self):
        # (x1) and (x1 -> x2) and (x2 -> x3)
        clauses = [[1], [-1, 2], [-2, 3]]
        result = solve_cnf(3, clauses)
        assert result.satisfiable
        assert result.assignment[3] is True

    def test_requires_backtracking(self):
        # Forces at least one decision to be revised.
        clauses = [[1, 2], [-1, 3], [-2, -3], [-1, -2], [1, -3]]
        result = solve_cnf(3, clauses)
        assert result.satisfiable
        assert check_model(clauses, result.assignment)

    def test_unsat_pigeonhole_2_into_1(self):
        # Two pigeons, one hole.
        clauses = [[1], [2], [-1, -2]]
        assert not solve_cnf(2, clauses).satisfiable

    def test_tautological_clause_ignored(self):
        result = solve_cnf(2, [[1, -1], [2]])
        assert result.satisfiable
        assert result.assignment[2] is True

    def test_short_clauses_drop_duplicates_and_tautologies(self):
        # [2, 2] and [1, 1, 1] are units, [3, 1, -3] is a tautology and
        # [-2, -3, -2] is the binary clause (-2 or -3).
        clauses = [[2, 2], [1, 1, 1], [3, 1, -3], [-2, -3, -2]]
        result = solve_cnf(3, clauses)
        assert result.assignment == {1: True, 2: True, 3: False}
        assert not solve_cnf(3, clauses + [[3, 3, 3]]).satisfiable


class TestPigeonhole:
    def _pigeonhole(self, pigeons, holes):
        # var(p, h) = p * holes + h + 1
        def var(p, h):
            return p * holes + h + 1

        clauses = []
        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return pigeons * holes, clauses

    def test_php_3_into_3_sat(self):
        num_vars, clauses = self._pigeonhole(3, 3)
        result = solve_cnf(num_vars, clauses)
        assert result.satisfiable
        assert check_model(clauses, result.assignment)

    def test_php_4_into_3_unsat(self):
        num_vars, clauses = self._pigeonhole(4, 3)
        assert not solve_cnf(num_vars, clauses).satisfiable

    def test_php_5_into_4_unsat(self):
        num_vars, clauses = self._pigeonhole(5, 4)
        assert not solve_cnf(num_vars, clauses).satisfiable


class TestRandom3Sat:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_agree_with_bruteforce(self, seed):
        rng = random.Random(seed)
        num_vars = 8
        num_clauses = 30
        clauses = []
        for _ in range(num_clauses):
            variables = rng.sample(range(1, num_vars + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])

        expected = self._bruteforce(num_vars, clauses)
        result = solve_cnf(num_vars, clauses)
        assert result.satisfiable == expected
        if result.satisfiable:
            assert check_model(clauses, result.assignment)

    @staticmethod
    def _bruteforce(num_vars, clauses):
        for mask in range(1 << num_vars):
            assignment = {v: bool((mask >> (v - 1)) & 1) for v in range(1, num_vars + 1)}
            if check_model(clauses, assignment):
                return True
        return False


class TestSolverReuse:
    def test_solver_object_usable_directly(self):
        solver = SatSolver(2, [[1, 2], [-1, 2]])
        result = solver.solve()
        assert result.satisfiable
        assert result.assignment[2] is True

    def test_constructor_grows_variables_to_cover_clauses(self):
        clauses = [[1, 2]]
        result = SatSolver(0, clauses).solve()
        assert result.satisfiable
        assert check_model(clauses, result.assignment)

    def test_solve_cnf_grows_variables_to_cover_clauses(self):
        result = solve_cnf(1, [[1, 2], [-2]])
        assert result.satisfiable
        assert result.assignment == {1: True, 2: False}


def _random_3sat(rng, num_vars, count, noisy):
    clauses = []
    for _ in range(count):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clause = [var if rng.random() < 0.5 else -var for var in variables]
        if noisy:
            roll = rng.random()
            if roll < 0.1:
                clause.append(clause[0])  # duplicate literal
            elif roll < 0.15:
                clause.append(-clause[1])  # tautology
        clauses.append(clause)
    return clauses


class TestSearchPinned:
    """The search order is part of the solver's contract.

    Test-generation models feed the packet-test oracle and the campaign
    benchmark pins every unit's verdict, and both follow from which
    conflict the solver finds first.  This digest over every ``solve``
    result of a seeded workload (verdict, ``complete``, model, conflict
    count) was recorded on the kernel before its rewrite for speed; a
    change to it is a change of search, not an optimisation.
    """

    DIGEST = "70175f03e2b38d6e4660a131fc823cfdf64841a67b13e2fd760ba1d7742f3091"

    @staticmethod
    def _workload():
        results = []
        rng = random.Random(2020)
        # Incremental random 3-SAT: clauses (with duplicate literals and
        # tautologies) and new variables arrive between solves, each solve
        # under its own assumptions.
        for _ in range(8):
            solver = SatSolver()
            for step in range(6):
                num_vars = 60 + 6 * step
                solver.add_clauses(_random_3sat(rng, num_vars, 64, noisy=True))
                assumptions = [
                    var if rng.random() < 0.5 else -var
                    for var in rng.sample(range(1, num_vars + 1), step)
                ]
                results.append(solver.solve(assumptions))
        # An assumption false at level 0 fails the call, not the instance;
        # an assumption on an unknown variable grows the variable space.
        solver = SatSolver(3, [[1], [-1, 2], [2, 3]])
        results += [solver.solve([-2]), solver.solve([4]), solver.solve()]
        # A hard instance: a 64-conflict budget ends in UNKNOWN, then the
        # full search runs Luby restarts and learned-clause reduction.
        hard = SatSolver(150, _random_3sat(random.Random(0), 150, 640, noisy=False))
        results += [hard.solve(max_conflicts=64), hard.solve()]
        return results

    def test_every_solve_result_matches_the_recorded_digest(self):
        results = self._workload()
        verdicts = [
            "SAT" if r.satisfiable else "UNSAT" if r.complete else "UNKNOWN"
            for r in results
        ]
        assert verdicts[-5:] == ["UNSAT", "SAT", "SAT", "UNKNOWN", "UNSAT"]
        assert [r.conflicts for r in results[-2:]] == [64, 3721]
        digest = hashlib.sha256()
        for r in results:
            digest.update(
                repr(
                    (r.satisfiable, r.complete, sorted(r.assignment.items()), r.conflicts)
                ).encode()
            )
        assert digest.hexdigest() == self.DIGEST


class TestActivityRescale:
    """Pins the activity-rescale paths ``TestSearchPinned`` never reaches.

    Its hard instance leaves ``var_inc`` near 1e82, so no rescale runs.
    Here ``var_inc`` is preset just below the 1e100 rescale threshold
    before every solve, so each solve with two or more conflicts rescales
    mid-search, and variables bumped early and left alone through four
    rescales underflow to activity 0.0.  The digest was recorded on the
    kernel before its rewrite for speed.
    """

    DIGEST = "5a0f4ad1a2b49f44b305aebd93e5e688e41a51ecda5887645f4906644aa12d4a"
    PRESET = 9.9e99

    def test_rescaling_workload_matches_the_recorded_digest(self):
        results = []
        rescales = underflows = 0
        rng = random.Random(7)
        for _ in range(4):
            solver = SatSolver(80, _random_3sat(rng, 80, 280, noisy=True))
            bumped = set()
            for step in range(12):
                num_vars = 80 + step
                solver.add_clauses(_random_3sat(rng, num_vars, 4, noisy=True))
                assumptions = [
                    var if rng.random() < 0.5 else -var
                    for var in rng.sample(range(1, num_vars + 1), 6)
                ]
                solver.var_inc = self.PRESET
                results.append(solver.solve(assumptions))
                # ``var_inc`` only grows between rescales.
                rescales += solver.var_inc < self.PRESET
                underflows += sum(1 for var in bumped if solver.activity[var] == 0.0)
                bumped |= {
                    var for var in range(1, solver.num_vars + 1) if solver.activity[var]
                }
        assert rescales == 43
        assert underflows > 0
        digest = hashlib.sha256()
        for r in results:
            digest.update(
                repr(
                    (r.satisfiable, r.complete, sorted(r.assignment.items()), r.conflicts)
                ).encode()
            )
        assert digest.hexdigest() == self.DIGEST

    @pytest.mark.parametrize("assumptions", [[-3], [2, -3]], ids=["unassigned", "on-trail"])
    def test_underflowed_variable_is_decided_at_its_index(self, assumptions):
        solver = SatSolver(6, [[1, 2], [1, -2], [3, 4], [3, -4]])
        # A conflict under -1 bumps variables 1 and 2; the learned unit fixes 1.
        assert not solver.solve([-1]).satisfiable
        assert solver.activity[2] > 0.0 and solver.values[2] is None
        # The next conflict rescales every activity, and variable 2's
        # underflows to 0.0, whether it is unassigned or on the trail then.
        solver.activity[2] = 5e-324
        solver.var_inc = 2e100
        assert not solver.solve(assumptions).satisfiable
        assert solver.activity[2] == 0.0
        # After the level-0 backtrack, the bumped variable 4 goes first and
        # variable 2 is decided among the activity-0 ones, in index order.
        result = solver.solve()
        assert result.assignment == {1: True, 2: True, 3: True, 4: True, 5: True, 6: False}
        assert [solver.trail[index] for index in solver.trail_lim] == [4, 2, 5, -6]
