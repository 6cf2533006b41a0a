"""Test-case reduction and bug localization (the triage subsystem).

Gauntlet files bugs as whole random programs and lists automatic reduction
as future work (paper §8).  This package is that missing back half: it
shrinks a finding's trigger program with multi-pass delta debugging while
an *oracle-faithful* predicate pins the reduction to the original bug, and
it localizes the defect to a compiler pass (pair) before the report is
filed.

Layout:

* :mod:`repro.core.reduce.reducer` — the fixed reduction pipeline: the
  primary transformations to their fixpoint, then one polish pass.  Every
  candidate is re-typechecked before the oracle predicate runs, so a
  deletion that produces an ill-formed program can never "confirm" the bug.
* :mod:`repro.core.reduce.transforms` — the transformation classes the
  loop cycles through: statement deletion, declaration/control-local and
  table pruning, expression simplification, parser-state and header-field
  shrinking.
* :mod:`repro.core.reduce.oracles` — ``platform_verdict``, the one oracle
  campaign units and triage ask, and the ``still_fails`` predicate built
  on it from the original :class:`~repro.core.engine.units.FindingRecord`
  (the same crash signature, or the same pass to blame).
* :mod:`repro.core.reduce.localize` — the crashing pass and its
  predecessor for crash bugs, the first diverging pair for semantic bugs.

The campaign engine runs reductions as a triage *stage*
(:func:`repro.core.engine.stages.run_triage_unit`) on the same executor
and artifact-store machinery as generation units; see
``src/repro/core/README.md``.
"""

from repro.core.reduce.localize import localize_finding
from repro.core.reduce.oracles import build_predicate
from repro.core.reduce.reducer import (
    Predicate,
    ReductionResult,
    program_size,
    reduce_program,
)
from repro.core.reduce.transforms import POLISH_TRANSFORMS, PRIMARY_TRANSFORMS

__all__ = [
    "POLISH_TRANSFORMS",
    "PRIMARY_TRANSFORMS",
    "Predicate",
    "ReductionResult",
    "build_predicate",
    "localize_finding",
    "program_size",
    "reduce_program",
]
