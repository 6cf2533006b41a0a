"""Conjunctive normal form container used between bit-blasting and SAT.

Variables are positive integers; literals are non-zero integers where a
negative literal denotes the negation of the corresponding variable
(DIMACS convention).  :class:`CnfBuilder` hands out fresh variables and
accumulates clauses, and offers the handful of gate encodings (Tseitin)
the bit-blaster needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence


@dataclass
class Cnf:
    """A CNF formula: a clause list over ``num_vars`` variables."""

    num_vars: int = 0
    clauses: List[List[int]] = field(default_factory=list)

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = list(literals)
        if not clause:
            # An empty clause makes the formula trivially unsatisfiable; keep
            # it so the SAT solver reports UNSAT rather than silently dropping
            # the contradiction.
            self.clauses.append(clause)
            return
        for literal in clause:
            if literal == 0:
                raise ValueError("literal 0 is not allowed")
            self.num_vars = max(self.num_vars, abs(literal))
        self.clauses.append(clause)


class CnfBuilder:
    """Fresh-variable factory plus Tseitin gate encodings.

    The clause list only grows, in the order the encodings are requested,
    so an incremental solver can be fed the clauses added since its last
    check.
    """

    def __init__(self) -> None:
        self.cnf = Cnf()
        self._next_var = 1
        # A dedicated constant-true variable keeps gate encodings uniform.
        self.true_var = self.new_var()
        self.cnf.add_clause([self.true_var])

    # -- variables -----------------------------------------------------------

    def new_var(self) -> int:
        var = self._next_var
        self._next_var = var + 1
        if var > self.cnf.num_vars:
            self.cnf.num_vars = var
        return var

    def new_vars(self, count: int) -> List[int]:
        return [self.new_var() for _ in range(count)]

    def const(self, value: bool) -> int:
        return self.true_var if value else -self.true_var

    # -- clauses --------------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        self.cnf.add_clause(literals)

    # -- gate encodings --------------------------------------------------------
    #
    # Every literal a gate emits was issued by :meth:`new_var`, so the gates
    # append straight to the clause list: :meth:`Cnf.add_clause`'s copy,
    # zero check and ``num_vars`` update would do nothing here.

    def encode_and(self, inputs: Sequence[int]) -> int:
        """Return a literal equivalent to the conjunction of ``inputs``."""

        if not inputs:
            return self.const(True)
        if len(inputs) == 1:
            return inputs[0]
        out = self.new_var()
        clauses = self.cnf.clauses
        for literal in inputs:
            clauses.append([-out, literal])
        clauses.append([out] + [-literal for literal in inputs])
        return out

    def encode_or(self, inputs: Sequence[int]) -> int:
        """Return a literal equivalent to the disjunction of ``inputs``."""

        if not inputs:
            return self.const(False)
        if len(inputs) == 1:
            return inputs[0]
        out = self.new_var()
        clauses = self.cnf.clauses
        for literal in inputs:
            clauses.append([out, -literal])
        clauses.append([-out, *inputs])
        return out

    def encode_xor(self, left: int, right: int) -> int:
        """Return a literal equivalent to ``left xor right``."""

        out = self.new_var()
        clauses = self.cnf.clauses
        clauses.append([-out, left, right])
        clauses.append([-out, -left, -right])
        clauses.append([out, -left, right])
        clauses.append([out, left, -right])
        return out

    def encode_iff(self, left: int, right: int) -> int:
        """Return a literal equivalent to ``left <-> right``."""

        return -self.encode_xor(left, right)

    def encode_ite(self, cond: int, then: int, orelse: int) -> int:
        """Return a literal equivalent to ``cond ? then : orelse``."""

        out = self.new_var()
        clauses = self.cnf.clauses
        clauses.append([-out, -cond, then])
        clauses.append([-out, cond, orelse])
        clauses.append([out, -cond, -then])
        clauses.append([out, cond, -orelse])
        return out

    def encode_full_adder(self, a: int, b: int, carry_in: int) -> tuple[int, int]:
        """Return ``(sum, carry_out)`` literals for a full adder."""

        partial = self.encode_xor(a, b)
        total = self.encode_xor(partial, carry_in)
        carry_ab = self.encode_and([a, b])
        carry_pc = self.encode_and([partial, carry_in])
        carry_out = self.encode_or([carry_ab, carry_pc])
        return total, carry_out

    def assert_literal(self, literal: int) -> None:
        self.add_clause([literal])
