"""A CDCL SAT solver.

The solver implements the standard conflict-driven clause learning loop:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* VSIDS-style activity based branching with periodic decay,
* Luby-sequence restarts, and
* learned-clause database reduction.

The solver is *incremental*: after a :meth:`SatSolver.solve` call the
instance stays usable -- callers can grow the variable space
(:meth:`SatSolver.ensure_num_vars`), add clauses
(:meth:`SatSolver.add_clauses`) and solve again, and the learned-clause
database, watch lists, variable activities and saved phases all carry over.
Test generation relies on it: one solver holds a program's environment
constraints, and each path constraint is an assumption of its own check
(see :mod:`repro.smt.solver`).

The search order is part of the contract: test-generation models and the
recorded campaign verdicts depend on which conflict is found first, so a
change here must keep every ``solve`` result, conflict count included
(``tests/smt/test_sat.py::TestSearchPinned``).

It is deliberately free of dependencies so it can serve as the decision
procedure underneath the bit-blaster in :mod:`repro.smt.bitblast`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from typing import Dict, List, Optional, Sequence, Tuple

#: A clause is a list of non-zero literals.  The solver owns its clause
#: lists: propagation reorders them in place (slots 0 and 1 are watched).
Clause = List[int]


@dataclass
class SatResult:
    """Outcome of a SAT call: satisfiability plus a model when SAT.

    ``complete`` distinguishes a definitive answer from a search the
    ``max_conflicts`` budget cut short: an incomplete result with
    ``satisfiable=False`` means *unknown*, not UNSAT, and must not be
    treated as a proof of unsatisfiability.  ``conflicts`` counts the
    conflicts the call hit.
    """

    satisfiable: bool
    assignment: Dict[int, bool]
    complete: bool = True
    conflicts: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.satisfiable


def _default_phase(var: int) -> bool:
    """Initial saved phase for a variable: a deterministic hash parity.

    Uniformly false phases bias models towards all-zero values (masking
    truncation of high bits); uniformly true phases bias towards all-ones
    (masking dropped writes of small constants).  A fuzzer wants witnesses
    with *mixed* bit patterns, so phases start from a cheap multiplicative
    hash of the variable index -- deterministic, hence reproducible runs.
    """

    return bool((var * 2654435761) & 0x10000)


def _luby(index: int) -> int:
    """The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...)."""

    k = 1
    while True:
        if index == (1 << k) - 1:
            return 1 << (k - 1)
        if (1 << (k - 1)) <= index < (1 << k) - 1:
            return _luby(index - (1 << (k - 1)) + 1)
        k += 1


class SatSolver:
    """CDCL solver over clauses of non-zero integer literals.

    Per-literal state is kept in lists indexed by the literal itself, a
    negative literal indexing from the end: ``values[lit]`` is the
    literal's truth value (``None`` while its variable is unassigned) and
    ``watches[lit]`` holds the clauses watching ``-lit``, visited when
    ``lit`` becomes true.  Both lists have ``2 * num_vars + 1`` slots.
    """

    def __init__(self, num_vars: int = 0, clauses: Sequence[Sequence[int]] = ()) -> None:
        self.num_vars = num_vars
        self.values: List[Optional[bool]] = [None] * (2 * num_vars + 1)
        self.watches: List[List[Clause]] = [[] for _ in range(2 * num_vars + 1)]
        self.level: List[int] = [0] * (num_vars + 1)
        #: The clause that implied each assigned variable (``None`` for
        #: decisions and level-0 units); stale once the variable is unassigned.
        self.reason: List[Optional[Clause]] = [None] * (num_vars + 1)
        self.activity: List[float] = [0.0] * (num_vars + 1)
        self.phase: List[bool] = [_default_phase(var) for var in range(num_vars + 1)]
        #: Per-variable marks for conflict analysis, all ``False`` between conflicts.
        self._seen: List[bool] = [False] * (num_vars + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.learned: List[Clause] = []
        self.propagate_head = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.empty_clause = False
        #: VSIDS order, split by activity.  Nearly every variable is never
        #: bumped and keeps activity 0.0; those are decided by index, the
        #: rest through a lazy max-heap of ``(-activity, var)`` entries.
        #: Invariants between decisions:
        #:
        #: * ``_bumped`` lists exactly the variables of positive activity;
        #: * every unassigned variable of positive activity has an entry in
        #:   ``_order`` at least as high as its activity;
        #: * every unassigned variable of activity 0.0 has an index of at
        #:   least ``_cursor``.
        #:
        #: So the decision (highest activity, lowest index on ties) is the
        #: first fresh heap entry for an unassigned variable, or, with the
        #: heap empty, the first unassigned variable from the cursor on.  A
        #: rescale that underflows an activity to 0.0 drops the variable
        #: from ``_bumped`` and lowers the cursor to it if it is unassigned;
        #: one on the trail reaches the cursor when a backtrack unassigns it.
        self._order: List[Tuple[float, int]] = []
        self._bumped: List[int] = []
        self._cursor = 1
        self.add_clauses(clauses)

    # -- incremental interface ---------------------------------------------

    def ensure_num_vars(self, num_vars: int) -> None:
        """Grow the variable space to ``num_vars`` (no-op when smaller)."""

        old = self.num_vars
        if num_vars <= old:
            return
        extra = num_vars - old
        # The new literals' slots go between the positive and the negative
        # ones, so every negative literal keeps its offset from the end.
        self.values[old + 1 : old + 1] = [None] * (2 * extra)
        self.watches[old + 1 : old + 1] = [[] for _ in repeat(None, 2 * extra)]
        self.level.extend(repeat(0, extra))
        self.reason.extend(repeat(None, extra))
        self.activity.extend(repeat(0.0, extra))
        self._seen.extend(repeat(False, extra))
        self.phase.extend([_default_phase(var) for var in range(old + 1, num_vars + 1)])
        # The new variables have activity 0.0 and indices above the old
        # ``num_vars``, and the cursor never passes ``num_vars + 1``.
        self.num_vars = num_vars

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        """Add input clauses (incremental solving).

        The variable space grows automatically to cover every literal
        (mirroring :class:`~repro.smt.cnf.CnfBuilder`).  Duplicate literals
        are removed, tautologies dropped and an empty clause makes the
        instance UNSAT.  The solver backtracks to decision level 0 and
        rewinds unit propagation so clauses that are unit or conflicting
        under the level-0 assignment are discovered on the next
        :meth:`solve`.
        """

        if not isinstance(clauses, list):
            clauses = list(clauses)
        literals = list(chain.from_iterable(clauses))
        if literals:
            self.ensure_num_vars(max(max(literals), -min(literals)))
        self._backtrack(0)
        self.propagate_head = 0
        values = self.values
        watches = self.watches
        for clause in clauses:
            # Fast paths for the binary and ternary clauses of gate
            # encodings: copy (propagation reorders the solver's lists),
            # skipping tautologies; duplicates take the general path.
            size = len(clause)
            if size == 2:
                a, b = clause
                if a == -b:
                    continue
                if a != b:
                    clause = [a, b]
                    watches[-a].append(clause)
                    watches[-b].append(clause)
                    continue
            elif size == 3:
                a, b, c = clause
                if a == -b or a == -c or b == -c:
                    continue
                if a != b and a != c and b != c:
                    clause = [a, b, c]
                    watches[-a].append(clause)
                    watches[-b].append(clause)
                    continue
            elif not size:
                self.empty_clause = True
                continue
            seen = set()
            out = []
            for literal in clause:
                if -literal in seen:
                    break  # tautology, always satisfied
                if literal not in seen:
                    seen.add(literal)
                    out.append(literal)
            else:
                if len(out) > 1:
                    watches[-out[0]].append(out)
                    watches[-out[1]].append(out)
                    continue
                # Unit input clause: assign at level 0.
                literal = out[0]
                value = values[literal]
                if value is False:
                    self.empty_clause = True
                elif value is None:
                    values[literal] = True
                    values[-literal] = False
                    var = literal if literal > 0 else -literal
                    self.level[var] = 0
                    self.reason[var] = None
                    self.trail.append(literal)

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a single input clause (see :meth:`add_clauses`)."""

        self.add_clauses([literals])

    # -- propagation -----------------------------------------------------------

    def _propagate(self) -> Optional[Clause]:
        """Unit-propagate the trail; return a conflicting clause or ``None``.

        Slot 1 of a visited clause gets the falsified watch; a clause with
        a true slot 0 stays, one with a spare slot (the first literal from
        slot 2 on that is not false) moves its watch there, and any other
        is unit or conflicting.  Binary clauses have no spare slot and
        ternary ones one candidate, so only longer clauses scan.
        """

        trail = self.trail
        watches = self.watches
        values = self.values
        level = self.level
        reason = self.reason
        decision_level = len(self.trail_lim)
        head = self.propagate_head
        size = len(trail)
        while head < size:
            literal = trail[head]
            head += 1
            watch_list = watches[literal]
            if not watch_list:
                continue
            false_literal = -literal
            index = 0
            end = len(watch_list)
            while index < end:
                clause = watch_list[index]
                # Ensure the falsified literal is in slot 1.
                first = clause[0]
                if first == false_literal:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_literal
                first_value = values[first]
                if first_value is True:
                    index += 1
                    continue
                length = len(clause)
                if length == 2:
                    spare = 0
                elif length == 3:
                    spare = 2 if values[clause[2]] is not False else 0
                else:
                    for spare in range(2, length):
                        if values[clause[spare]] is not False:
                            break
                    else:
                        spare = 0
                if spare:
                    # Watch the spare literal instead.
                    candidate = clause[spare]
                    clause[1] = candidate
                    clause[spare] = false_literal
                    end -= 1
                    watch_list[index] = watch_list[end]
                    watch_list.pop()
                    watches[-candidate].append(clause)
                    continue
                # Clause is unit or conflicting.
                if first_value is False:
                    self.propagate_head = head
                    return clause
                values[first] = True
                values[-first] = False
                var = first if first > 0 else -first
                level[var] = decision_level
                reason[var] = clause
                trail.append(first)
                size += 1
                index += 1
        self.propagate_head = head
        return None

    # -- conflict analysis ---------------------------------------------------------

    def _analyze(self, conflict: Clause) -> Tuple[Clause, int]:
        """The first-UIP learned clause (asserting literal in slot 0) and
        the level to backjump to; ``seen`` is all ``False`` again after."""

        level = self.level
        reason = self.reason
        activity = self.activity
        bumped = self._bumped
        trail = self.trail
        seen = self._seen
        decision_level = len(self.trail_lim)
        learned: Clause = [0]  # slot 0 reserved for the asserting literal
        counter = 0
        literal = 0
        trail_index = len(trail) - 1
        clause = conflict

        while True:
            for reason_literal in clause:
                # Skip the literal this clause propagated (the resolvent pivot);
                # for the initial conflict clause (``literal == 0``) nothing
                # is skipped.
                if reason_literal == -literal:
                    continue
                var = reason_literal if reason_literal > 0 else -reason_literal
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    # Bump: every variable of a conflict or reason clause is
                    # assigned, so it re-enters the order when unassigned
                    # (on the heap, once its first bump made it positive).
                    if not activity[var]:
                        bumped.append(var)
                    activity[var] += self.var_inc
                    if activity[var] > 1e100:
                        self._rescale()
                    if level[var] >= decision_level:
                        counter += 1
                    else:
                        learned.append(reason_literal)
            # Pick the next literal from the trail to resolve on.
            while not seen[abs(trail[trail_index])]:
                trail_index -= 1
            literal = -trail[trail_index]
            var = abs(literal)
            seen[var] = False
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
            clause = reason[var]

        learned[0] = literal
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second highest decision level in the clause and
        # move the (first) literal from that level to slot 1 so the
        # two-watched literal invariant holds for the learned clause (slot 0
        # is the asserting literal, slot 1 the most recently falsified one).
        max_index = 1
        backjump = -1
        for index in range(1, len(learned)):
            var = abs(learned[index])
            seen[var] = False
            if level[var] > backjump:
                max_index = index
                backjump = level[var]
        learned[1], learned[max_index] = learned[max_index], learned[1]
        return learned, backjump

    def _rescale(self) -> None:
        """Scale every activity and ``var_inc`` by 1e-100.

        Only bumped variables have a non-zero activity.  One whose activity
        underflows to 0.0 is decided by index again: it leaves ``_bumped``,
        and the cursor drops to it if it is unassigned.
        """

        activity = self.activity
        values = self.values
        bumped = self._bumped
        kept = []
        for var in bumped:
            scaled = activity[var] * 1e-100
            activity[var] = scaled
            if scaled:
                kept.append(var)
            elif values[var] is None and var < self._cursor:
                self._cursor = var
        bumped[:] = kept  # in place: ``_analyze`` holds the list
        self.var_inc *= 1e-100

    def _backtrack(self, target_level: int) -> None:
        """Unassign every level above ``target_level``, saving phases.

        An unassigned variable of positive activity goes back on the heap,
        one of activity 0.0 lowers the cursor to it.  Back at level 0 the
        heap is rebuilt from the bumped variables, dropping every stale
        entry.
        """

        trail_lim = self.trail_lim
        if len(trail_lim) > target_level:
            trail = self.trail
            limit = trail_lim[target_level]
            unassigned = trail[limit:]
            del trail[limit:]
            del trail_lim[target_level:]
            values = self.values
            phase = self.phase
            activity = self.activity
            order = self._order
            cursor = self._cursor
            for literal in unassigned:
                values[literal] = None
                values[-literal] = None
                if literal > 0:
                    var = literal
                    phase[var] = True
                else:
                    var = -literal
                    phase[var] = False
                if activity[var]:
                    if target_level:
                        heappush(order, (-activity[var], var))
                elif var < cursor:
                    cursor = var
            self._cursor = cursor
            if not target_level:
                # In place: ``solve`` holds the list.
                order[:] = [(-activity[var], var) for var in self._bumped if values[var] is None]
                heapify(order)
        self.propagate_head = min(self.propagate_head, len(self.trail))

    # -- learned clauses -----------------------------------------------------------

    def _reduce_learned(self) -> None:
        """Drop the older half of the learned clauses, unless locked.

        Every learned clause has the same activity, so the older half is
        the lowest-activity half; a clause that is the reason for a current
        assignment is locked and stays.
        """

        learned = self.learned
        if len(learned) < 2000:
            return
        reason = self.reason
        locked = {id(reason[abs(literal)]) for literal in self.trail}
        dropped = {id(clause) for clause in learned[: len(learned) // 2]} - locked
        if not dropped:
            return
        self.learned = [clause for clause in learned if id(clause) not in dropped]
        for watch_list in self.watches:
            if watch_list:
                watch_list[:] = [clause for clause in watch_list if id(clause) not in dropped]

    # -- main loop -------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (), max_conflicts: Optional[int] = None) -> SatResult:
        """Run the CDCL loop, optionally under ``assumptions``.

        The call is re-entrant: level-0 state, learned clauses, activities
        and phases persist, so repeated calls (with clauses added in
        between) pick up where the previous search left off.  Assumptions
        hold only for this call -- each assumption owns one decision level,
        so a backjump below an assumption level simply re-applies it.
        """

        assumptions = list(assumptions)
        self.ensure_num_vars(max((abs(lit) for lit in assumptions), default=0))
        if self.empty_clause:
            return SatResult(False, {})

        # Restart the search from level 0 (a previous call may have left a
        # full assignment or stale assumptions on the trail).
        self._backtrack(0)

        conflicts = 0
        restart_index = 1
        restart_limit = 32 * _luby(restart_index)
        conflicts_since_restart = 0

        # Level-0 propagation of unit input clauses.
        if self._propagate() is not None:
            self.empty_clause = True  # conflict at level 0 is permanent
            return SatResult(False, {})

        trail = self.trail
        trail_lim = self.trail_lim
        values = self.values
        level = self.level
        reason = self.reason
        watches = self.watches
        activity = self.activity
        phase = self.phase
        order = self._order
        num_vars = self.num_vars
        propagate = self._propagate
        while True:
            conflict = propagate()
            if conflict is not None:
                conflicts += 1
                conflicts_since_restart += 1
                if not trail_lim:
                    self.empty_clause = True  # permanently UNSAT
                    return SatResult(False, {}, conflicts=conflicts)
                learned, backjump_level = self._analyze(conflict)
                self._backtrack(backjump_level)
                literal = learned[0]
                if len(learned) > 1:
                    self.learned.append(learned)
                    watches[-literal].append(learned)
                    watches[-learned[1]].append(learned)
                    reason_clause: Optional[Clause] = learned
                else:
                    reason_clause = None
                values[literal] = True
                values[-literal] = False
                var = literal if literal > 0 else -literal
                level[var] = backjump_level
                reason[var] = reason_clause
                trail.append(literal)
                self.var_inc /= self.var_decay
                if max_conflicts is not None and conflicts >= max_conflicts:
                    # Budget exhausted: the answer is unknown, not UNSAT.
                    return SatResult(False, {}, complete=False, conflicts=conflicts)
                if conflicts_since_restart >= restart_limit:
                    conflicts_since_restart = 0
                    restart_index += 1
                    restart_limit = 32 * _luby(restart_index)
                    self._backtrack(0)
                self._reduce_learned()
                continue

            # Assumption ``i`` owns decision level ``i + 1``; after any
            # backjump the not-yet-established assumptions are re-applied.
            decision_level = len(trail_lim)
            if decision_level < len(assumptions):
                literal = assumptions[decision_level]
                value = values[literal]
                if value is True:
                    # Already implied: open a dummy level so the indexing
                    # between assumptions and levels stays aligned.
                    trail_lim.append(len(trail))
                    continue
                if value is False:
                    # UNSAT under these assumptions (not permanently).
                    return SatResult(False, {}, conflicts=conflicts)
                var = literal if literal > 0 else -literal
            else:
                # Branch on the unassigned variable of highest activity: a
                # bumped one from the heap, else the lowest-index one.
                while order:
                    negated, var = heappop(order)
                    if values[var] is not None:
                        continue  # stale: assigned since queued
                    current = activity[var]
                    if -negated != current:
                        # Stale priority (activity rescaled): refresh,
                        # unless it underflowed to 0.0 (the cursor's).
                        if current:
                            heappush(order, (-current, var))
                        continue
                    break
                else:
                    var = self._cursor
                    while var <= num_vars and values[var] is not None:
                        var += 1
                    if var > num_vars:
                        # Every variable is assigned.
                        self._cursor = var
                        model = dict(enumerate(values[1 : num_vars + 1], 1))
                        return SatResult(True, model, conflicts=conflicts)
                    self._cursor = var + 1
                literal = var if phase[var] else -var
            trail_lim.append(len(trail))
            values[literal] = True
            values[-literal] = False
            level[var] = decision_level + 1
            reason[var] = None
            trail.append(literal)


def solve_cnf(num_vars: int, clauses: Sequence[Sequence[int]]) -> SatResult:
    """Convenience helper: solve a clause list from scratch."""

    return SatSolver(num_vars, clauses).solve()
