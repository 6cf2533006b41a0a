"""A small bit-vector / Boolean SMT engine.

This package stands in for Z3 in the Gauntlet reproduction.  It provides:

* :mod:`repro.smt.terms` -- an immutable, hash-consed term language for
  fixed-width bit vectors and Booleans (the only sorts P4 programs need).
* :mod:`repro.smt.simplify` -- a rewriting simplifier / constant folder.
* :mod:`repro.smt.evaluate` -- concrete evaluation of terms under a model.
* :mod:`repro.smt.bitblast` -- Tseitin bit-blasting of terms to CNF.
* :mod:`repro.smt.sat` -- a CDCL SAT solver with two-watched-literal
  propagation, first-UIP clause learning, VSIDS branching and restarts.
* :mod:`repro.smt.solver` -- the user-facing :class:`Solver` with
  ``add``/``check``/``model``, and :func:`find_divergence`, the
  equivalence check translation validation asks.

The public API deliberately mirrors the small subset of z3py that Gauntlet
uses, so the core Gauntlet modules read very much like the original tool.
"""

from repro.smt.terms import (
    BoolSort,
    BitVecSort,
    Term,
    BitVecVal,
    BitVecSym,
    BoolVal,
    BoolSym,
    Add,
    Sub,
    Mul,
    UDiv,
    URem,
    BvAnd,
    BvOr,
    BvXor,
    BvNot,
    Shl,
    LShr,
    Concat,
    Extract,
    ZeroExt,
    Eq,
    Ne,
    Ult,
    Ule,
    Ugt,
    Uge,
    And,
    Or,
    Not,
    Implies,
    Ite,
)
from repro.smt.terms import clear_term_caches, intern_table_size
from repro.smt.simplify import simplify, simplify_cache_size
from repro.smt.evaluate import evaluate
from repro.smt.solver import (
    CheckResult,
    Model,
    Solver,
    clear_equivalence_cache,
    find_divergence,
)

__all__ = [
    "BoolSort",
    "BitVecSort",
    "Term",
    "BitVecVal",
    "BitVecSym",
    "BoolVal",
    "BoolSym",
    "Add",
    "Sub",
    "Mul",
    "UDiv",
    "URem",
    "BvAnd",
    "BvOr",
    "BvXor",
    "BvNot",
    "Shl",
    "LShr",
    "Concat",
    "Extract",
    "ZeroExt",
    "Eq",
    "Ne",
    "Ult",
    "Ule",
    "Ugt",
    "Uge",
    "And",
    "Or",
    "Not",
    "Implies",
    "Ite",
    "simplify",
    "evaluate",
    "Solver",
    "CheckResult",
    "Model",
    "find_divergence",
    "clear_equivalence_cache",
    "clear_term_caches",
    "intern_table_size",
    "simplify_cache_size",
]
