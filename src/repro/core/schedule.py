"""Generator steering: the static per-defect table and the arm rotation.

Both consumers steer through one mechanism, :meth:`KnobArm.apply`:

* The detection matrix steers each seeded defect with the union of the
  :data:`MATRIX_STEERING` rows for its trigger features
  (:func:`static_overrides_for_bug`; paper §4.2: bias the generator
  towards the constructs the defect needs).
* A scheduled campaign (``schedule_rounds > 0``) splits its program
  budget into contiguous rounds and generates round *r* with
  ``ARM_CATALOG[r % len(ARM_CATALOG)]`` (:func:`round_plan`).  This is
  swarm testing (Groce et al., ISSTA 2012): each round explores another
  slice of the knob space and no arm is starved.

Determinism contract: nothing in this module reads wall-clock time,
process identity or randomness.  The round plan is a pure function of the
program count and the round count, so jobs=1, jobs=4 and distributed runs
schedule identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.compiler.bugs import SeededBug
from repro.core.generator import GeneratorConfig

__all__ = [
    "ARM_CATALOG",
    "KnobArm",
    "MATRIX_STEERING",
    "round_plan",
    "static_overrides_for_bug",
]


# ----------------------------------------------------------------------
# Static steering table (canonical home; the engine imports it from here)
# ----------------------------------------------------------------------

#: Per-trigger-feature generator overrides used by the static detection
#: matrix.  Kept here (not in the engine) so the arm catalog below can be
#: checked against it without an import cycle.
MATRIX_STEERING: Mapping[str, Mapping[str, object]] = {
    "header_stack": {"p_header_stack": 0.8},
    "function": {"p_function": 1.0},
    "inout_param": {"p_local_arg_idiom": 0.8},
    "shift": {"p_idiom": 0.9},
    "multiple_keys": {"p_table": 1.0, "max_tables": 3},
    "table": {"p_table": 1.0},
    "cast": {"p_idiom": 0.9, "p_narrowing_cast": 0.9},
    "parser_cycle": {"p_parser": 0.8, "p_parser_cycle": 0.6},
    "register": {"p_register": 0.9},
    "counter": {"p_register": 0.9},
}


# ----------------------------------------------------------------------
# Knob arms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KnobArm:
    """A named generator knob vector.

    ``overrides`` is a tuple of ``(knob, value)`` pairs so the arm is
    hashable and survives the pickled work-unit wire format unchanged.
    """

    name: str
    overrides: Tuple[Tuple[str, object], ...] = ()

    def apply(self, generator: GeneratorConfig) -> GeneratorConfig:
        """Overlay this arm on ``generator``, touching only default knobs.

        A knob the caller set explicitly (anything not at its dataclass
        default) wins over the arm, so user configuration is never
        silently overridden.
        """

        defaults = GeneratorConfig.__dataclass_fields__
        applicable = {
            knob: value
            for knob, value in self.overrides
            if getattr(generator, knob) == defaults[knob].default
        }
        if not applicable:
            return generator
        return replace(generator, **applicable)

    def overrides_dict(self) -> Dict[str, object]:
        return dict(self.overrides)


def _arm(name: str, **overrides: object) -> KnobArm:
    return KnobArm(name=name, overrides=tuple(sorted(overrides.items())))


#: The arm catalog, in rotation order.  Every union of
#: :data:`MATRIX_STEERING` rows that a catalog defect can produce appears
#: here, plus the un-steered baseline, so a scheduled campaign rotates
#: through every knob vector the detection matrix steers with.
ARM_CATALOG: Tuple[KnobArm, ...] = (
    _arm("baseline"),
    _arm("functions", p_function=1.0),
    _arm("local-args", p_function=1.0, p_local_arg_idiom=0.8),
    _arm("idioms", p_idiom=0.9),
    _arm("casts", p_idiom=0.9, p_narrowing_cast=0.9),
    _arm("parsers", p_parser=0.8, p_parser_cycle=0.6),
    _arm("stacks", p_header_stack=0.8),
    _arm("registers", p_register=0.9),
    _arm("tables", p_table=1.0),
    _arm("wide-tables", p_table=1.0, max_tables=3),
)


def static_overrides_for_bug(bug: SeededBug) -> Dict[str, object]:
    """The override union static steering applies for ``bug``."""

    merged: Dict[str, object] = {}
    for feature in bug.trigger_features:
        merged.update(MATRIX_STEERING.get(feature, {}))
    return merged


def round_plan(programs: int, rounds: int) -> List[Tuple[Optional[KnobArm], range]]:
    """The generation rounds of a campaign: ``(arm, program indices)`` pairs.

    ``rounds <= 0`` is a static campaign: one round over every program
    with no arm.  Otherwise the budget is split into ``min(rounds,
    programs)`` contiguous index ranges (earlier rounds take the
    remainder) and round *r* pulls ``ARM_CATALOG[r % len(ARM_CATALOG)]``.
    """

    if rounds <= 0:
        return [(None, range(programs))]
    rounds = min(rounds, programs)
    plan: List[Tuple[Optional[KnobArm], range]] = []
    start = 0
    for index in range(rounds):
        count = programs // rounds + (1 if index < programs % rounds else 0)
        plan.append((ARM_CATALOG[index % len(ARM_CATALOG)], range(start, start + count)))
        start += count
    return plan
