"""Knob arms and the round plan of scheduled campaigns.

No campaigns run here: the steering overlay and the fixed arm rotation
are pure functions, checked directly.
"""

from dataclasses import replace

from repro.compiler.bugs import BUG_CATALOG
from repro.core.generator import GeneratorConfig
from repro.core.schedule import (
    ARM_CATALOG,
    KnobArm,
    round_plan,
    static_overrides_for_bug,
)


def arm_named(name: str) -> KnobArm:
    return next(arm for arm in ARM_CATALOG if arm.name == name)


class TestKnobArm:
    def test_apply_overlays_default_knobs(self):
        generator = GeneratorConfig(seed=7)
        steered = arm_named("casts").apply(generator)
        assert steered.p_idiom == 0.9
        assert steered.p_narrowing_cast == 0.9
        assert steered.seed == 7

    def test_apply_never_overrides_explicit_knobs(self):
        generator = GeneratorConfig(seed=7, p_idiom=0.1)
        steered = arm_named("casts").apply(generator)
        assert steered.p_idiom == 0.1  # user-set knob wins
        assert steered.p_narrowing_cast == 0.9  # default knob steered

    def test_baseline_arm_is_identity(self):
        generator = GeneratorConfig(seed=7)
        assert arm_named("baseline").apply(generator) == generator

    def test_catalog_covers_every_steering_union(self):
        """Every union the static table can produce for a catalog defect
        has an exact arm counterpart, so the arm rotation of a scheduled
        campaign visits every knob vector the detection matrix steers
        with."""

        for bug in BUG_CATALOG.values():
            union = static_overrides_for_bug(bug)
            matches = [
                arm for arm in ARM_CATALOG if arm.overrides_dict() == union
            ]
            assert matches, f"no arm matches steering union for {bug.bug_id}"

    def test_static_overrides_union_the_trigger_rows(self):
        """The matrix steers a defect with the union of the
        ``MATRIX_STEERING`` rows of its trigger features; a feature
        without a row adds nothing."""

        bug = replace(
            BUG_CATALOG["constant_folding_no_mask"],
            trigger_features=("cast", "multiple_keys", "comparison"),
        )
        assert static_overrides_for_bug(bug) == {
            "p_idiom": 0.9, "p_narrowing_cast": 0.9, "p_table": 1.0, "max_tables": 3,
        }


class TestRoundPlan:
    def test_rotation_ranges_static_and_clamping(self):
        plan = round_plan(25, 12)
        # Round r pulls ARM_CATALOG[r % 10]: catalog order, then wrap-around.
        assert [arm.name for arm, _ in plan] == [
            arm.name for arm in ARM_CATALOG + ARM_CATALOG[:2]
        ]
        # Contiguous index ranges covering every program once; earlier
        # rounds take the remainder.
        assert [index for _, indices in plan for index in indices] == list(range(25))
        assert [len(indices) for _, indices in plan] == [3] + [2] * 11
        # 0 rounds: one static round over every program, no arm.
        assert round_plan(25, 0) == [(None, range(25))]
        # Rounds are clamped to the program count.
        assert round_plan(3, 10) == [
            (ARM_CATALOG[0], range(0, 1)),
            (ARM_CATALOG[1], range(1, 2)),
            (ARM_CATALOG[2], range(2, 3)),
        ]
        assert round_plan(0, 4) == []
