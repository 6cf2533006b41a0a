"""Tests for the staged campaign engine.

The engine's contract has three legs:

* **executor equivalence** — at a fixed seed, the serial executor and a
  local worker fleet (``jobs > 1``) file byte-identical deduplicated bug
  reports and aggregate statistics (completion order must not matter);
* **resume** — a campaign killed mid-flight (simulated by truncating the
  JSONL artifact store, including a torn final line) finishes to the same
  result as an uninterrupted run, recomputing only the missing units;
* **deterministic sharding** — program ``i`` of a corpus depends only on
  ``(seed, i)``, never on generation order, so any shard can be produced
  independently in any process.

The fleet also keeps each program's units on one worker, so its
cache-miss counts equal the serial run's.
"""

import gc
import json
import os

import pytest

from repro import smt
from repro.compiler.bugs import BUG_CATALOG
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine import (
    ArtifactStore,
    CampaignEngine,
    CampaignSpec,
    DistributedExecutor,
    FindingRecord,
    SerialExecutor,
    UnitOutcome,
    WorkUnit,
    build_units,
    campaign_key,
    reset_worker_state,
    run_unit,
)
from repro.core.engine import stages
from repro.core.engine.stages import GC_GEN0_THRESHOLD
from repro.core.engine.units import program_groups
from repro.core.validation import clear_validation_caches
from repro.core.generator import (
    GeneratorConfig,
    RandomProgramGenerator,
    derive_child_seed,
)
from repro.core.schedule import KnobArm, static_overrides_for_bug
from repro.p4 import emit_program

ENABLED = (
    "constant_folding_no_mask",
    "strength_reduction_negative_slice",
    "exit_ignores_copy_out",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
)


def small_config(**overrides):
    defaults = dict(programs=8, seed=3, enabled_bugs=ENABLED)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def reports(stats):
    return [report.to_dict() for report in stats.tracker.reports]


def headline(stats):
    return (
        stats.programs_generated,
        stats.programs_rejected,
        stats.oracle_errors,
        stats.crash_findings,
        stats.semantic_findings,
    )


class TestShardedGeneration:
    def test_child_seed_is_stable(self):
        assert derive_child_seed(0, 0) == derive_child_seed(0, 0)
        assert derive_child_seed(0, 1) != derive_child_seed(0, 0)
        assert derive_child_seed(1, 0) != derive_child_seed(0, 0)

    def test_indexed_generation_is_order_independent(self):
        forward = RandomProgramGenerator(GeneratorConfig(seed=5))
        backward = RandomProgramGenerator(GeneratorConfig(seed=5))
        want = [emit_program(forward.generate_indexed(i)) for i in range(6)]
        got = [emit_program(backward.generate_indexed(i)) for i in reversed(range(6))]
        assert want == list(reversed(got))

    def test_indexed_generation_is_interleaving_independent(self):
        # Drawing from the plain shared-stream API between indexed calls
        # must not perturb the corpus.
        clean = RandomProgramGenerator(GeneratorConfig(seed=9))
        dirty = RandomProgramGenerator(GeneratorConfig(seed=9))
        want = emit_program(clean.generate_indexed(3))
        dirty.generate()
        dirty.generate()
        assert emit_program(dirty.generate_indexed(3)) == want


class TestUnits:
    def test_build_units_is_deterministic_and_ordered(self):
        generator = GeneratorConfig(seed=0)
        units = build_units(range(3), ("tofino", "p4c", "bmv2"), generator, (), 4)
        assert [unit.key for unit in units] == [
            (0, "p4c"), (0, "bmv2"), (0, "tofino"),
            (1, "p4c"), (1, "bmv2"), (1, "tofino"),
            (2, "p4c"), (2, "bmv2"), (2, "tofino"),
        ]

    def test_build_units_of_a_round_range_match_the_full_list(self):
        generator = GeneratorConfig(seed=0)
        whole = build_units(range(4), ("p4c", "bmv2"), generator, (), 4)
        assert build_units(range(2, 4), ("bmv2", "p4c"), generator, (), 4) == whole[4:]

    def test_outcome_json_round_trip(self):
        outcome = UnitOutcome(
            program_index=7,
            platform="bmv2",
            status="finding",
            findings=[
                FindingRecord(
                    kind="crash",
                    platform="bmv2",
                    pass_name="Lowering",
                    description="boom",
                    signature="sig",
                ),
                FindingRecord(
                    kind="semantic",
                    platform="bmv2",
                    pass_name="backend",
                    description="mismatch",
                    witness={"hdr.h.a": 3, "hdr.h.$valid": True},
                ),
            ],
            source="control ingress...",
            counters={"solver_checks": 5},
            elapsed_s=0.25,
        )
        assert UnitOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict()))
        ) == outcome

    def test_run_unit_reports_counter_deltas(self):
        unit = WorkUnit(
            program_index=0,
            platform="p4c",
            generator=GeneratorConfig(seed=3),
        )
        outcome = run_unit(unit)
        assert outcome.platform == "p4c"
        assert outcome.source.startswith("header") or "control" in outcome.source
        # Deltas, not absolutes: a fresh unit on a fresh program must have
        # done *some* validation work, and no gauge keys leak through.
        assert outcome.counters.get("solver_checks", 0) >= 0
        assert not any(key.endswith("_entries") for key in outcome.counters)


class TestExecutorEquivalence:
    def test_parallel_matches_serial_reports_and_statistics(self):
        serial = Campaign(small_config(jobs=1)).run()
        parallel = Campaign(small_config(jobs=4)).run()
        assert reports(parallel) == reports(serial)
        assert headline(parallel) == headline(serial)
        assert serial.tracker.reports  # the campaign actually found bugs

    def test_parallel_matches_serial_on_clean_campaign(self):
        serial = Campaign(small_config(programs=5, enabled_bugs=(), jobs=1)).run()
        parallel = Campaign(small_config(programs=5, enabled_bugs=(), jobs=2)).run()
        assert len(serial.tracker) == 0
        assert reports(parallel) == reports(serial)
        assert headline(parallel) == headline(serial)

    def test_parallel_detection_matrix_matches_serial(self):
        bug_ids = ["constant_folding_no_mask", "bmv2_wide_field_truncation"]
        serial = Campaign(small_config(jobs=1)).run_detection_matrix(
            bug_ids, programs_per_bug=12
        )
        parallel = Campaign(small_config(jobs=2)).run_detection_matrix(
            bug_ids, programs_per_bug=12
        )
        assert [
            (r.bug.bug_id, r.detected, r.technique, r.programs_tried) for r in serial
        ] == [
            (r.bug.bug_id, r.detected, r.technique, r.programs_tried) for r in parallel
        ]

    def test_counters_are_aggregated(self):
        stats = Campaign(small_config(jobs=2)).run()
        # Worker processes did the solving; their counters must surface in
        # the merged campaign result (satellite: truthful benchmarks).
        assert stats.counters["solver_checks"] > 0
        # Forked workers inherit warm caches, so only the *lookup* count is
        # guaranteed to be non-zero, not the miss count.
        assert stats.counters["interp_hits"] + stats.counters["interp_misses"] > 0


class TestProgramPlacement:
    """The fleet runs a program's units on one worker.

    A program's platform units share its prefix compilation, snapshot
    reparse and interpretation and symbolic tests through per-process
    caches, so with whole programs per worker a parallel campaign misses
    each cache exactly as often as the serial loop does.
    """

    MISSES = ("prefix_misses", "reparse_misses", "interp_misses", "testgen_misses")

    def test_program_groups_split_at_program_boundaries(self):
        units = build_units(range(3), ("p4c", "bmv2"), GeneratorConfig(seed=0), (), 4)
        groups = program_groups(units[1:])
        assert [[unit.key for unit in group] for group in groups] == [
            [(0, "bmv2")],
            [(1, "p4c"), (1, "bmv2")],
            [(2, "p4c"), (2, "bmv2")],
        ]

    def test_fleet_misses_the_caches_as_serial_does(self):
        spec = CampaignSpec(
            programs=12,
            generator=GeneratorConfig(seed=0),
            platforms=("p4c", "bmv2", "tofino"),
        )
        misses = {}
        for name, executor in (
            ("serial", SerialExecutor()),
            ("fleet", DistributedExecutor(2)),
        ):
            # Forked workers inherit this process's caches: start each
            # run cold, as a campaign a user starts does.
            smt.clear_term_caches()
            clear_validation_caches()
            reset_worker_state()
            counters = CampaignEngine(spec, executor=executor).run().counters
            misses[name] = [counters[key] for key in self.MISSES]
        assert misses["fleet"] == misses["serial"]


class TestCollectorPolicy:
    """Every process that runs units collects garbage under one policy."""

    def test_import_sets_gen0_threshold_here_and_in_fleet_workers(self, monkeypatch):
        assert gc.get_threshold()[0] == GC_GEN0_THRESHOLD

        def probe(unit):
            """Report the process the unit ran in and its gen0 threshold."""

            return UnitOutcome(
                program_index=unit.program_index,
                platform=unit.platform,
                status="clean",
                counters={"pid": os.getpid(), "gen0": gc.get_threshold()[0]},
            )

        # Fleet workers are forked after the patch, so they run the probe.
        monkeypatch.setattr(stages, "run_unit", probe)
        units = build_units(range(4), ("p4c",), GeneratorConfig(seed=0), (), 4)
        probes = [
            outcome.counters for outcome in DistributedExecutor(2).run_units(units)
        ]
        assert len(probes) == 4
        assert all(probe["pid"] != os.getpid() for probe in probes)
        assert {probe["gen0"] for probe in probes} == {GC_GEN0_THRESHOLD}

    def test_campaign_reports_collections_per_generation(self):
        stats = Campaign(small_config(programs=5, enabled_bugs=(), jobs=1)).run()
        for generation in range(3):
            assert stats.counters[f"gc_gen{generation}_collections"] >= 0


class TestResume:
    def _config(self, tmp_path, **overrides):
        return small_config(
            artifact_path=os.path.join(tmp_path, "artifacts.jsonl"), **overrides
        )

    def test_interrupted_campaign_resumes_to_identical_result(self, tmp_path):
        tmp_path = str(tmp_path)
        uninterrupted = Campaign(small_config()).run()

        config = self._config(tmp_path)
        first = Campaign(config).run()
        assert first.units_reused == 0

        # Simulate a kill: drop all but the first five outcome lines and
        # leave a torn final line, as a mid-write SIGKILL would.
        path = config.artifact_path
        lines = open(path).read().splitlines(True)
        assert len(lines) == first.units_total
        with open(path, "w") as handle:
            handle.writelines(lines[:5])
            handle.write('{"key": "torn mid-write')

        resumed = Campaign(self._config(tmp_path)).run()
        assert resumed.units_reused == 5
        assert resumed.units_total == first.units_total
        assert reports(resumed) == reports(uninterrupted)
        assert headline(resumed) == headline(uninterrupted)

    def test_completed_campaign_is_fully_reused(self, tmp_path):
        config = self._config(str(tmp_path))
        first = Campaign(config).run()
        again = Campaign(self._config(str(tmp_path))).run()
        assert again.units_reused == again.units_total == first.units_total
        assert reports(again) == reports(first)

    def test_different_config_does_not_reuse(self, tmp_path):
        tmp_path = str(tmp_path)
        Campaign(self._config(tmp_path)).run()
        other = Campaign(self._config(tmp_path, seed=4)).run()
        assert other.units_reused == 0

    def test_growing_a_campaign_reuses_the_prefix(self, tmp_path):
        tmp_path = str(tmp_path)
        small = Campaign(self._config(tmp_path, programs=4)).run()
        grown = Campaign(self._config(tmp_path, programs=8)).run()
        assert grown.units_reused == small.units_total
        assert grown.units_total == 2 * small.units_total

    @pytest.mark.parametrize("first_jobs", [1, 2])
    def test_detection_matrix_reuses_store_units(self, tmp_path, first_jobs):
        config = self._config(str(tmp_path))
        bug_ids = ["constant_folding_no_mask", "bmv2_wide_field_truncation"]
        # The first run writes the store serially or from the fleet; a
        # serial re-run reuses it either way.
        first = Campaign(
            self._config(str(tmp_path), jobs=first_jobs)
        ).run_detection_matrix(bug_ids, programs_per_bug=10)
        store_size = len(ArtifactStore(config.artifact_path))
        assert store_size > 0
        second = Campaign(config).run_detection_matrix(bug_ids, programs_per_bug=10)
        # No new units were computed the second time around.
        assert len(ArtifactStore(config.artifact_path)) == store_size
        assert [(r.detected, r.technique, r.programs_tried) for r in second] == [
            (r.detected, r.technique, r.programs_tried) for r in first
        ]

    def test_detection_matrix_stores_under_the_static_arm_key(self, tmp_path):
        config = self._config(str(tmp_path))
        bug = BUG_CATALOG["strength_reduction_negative_slice"]
        Campaign(config).run_detection_matrix([bug.bug_id], programs_per_bug=4)
        arm = KnobArm("static", tuple(static_overrides_for_bug(bug).items()))
        key = campaign_key(
            arm.apply(GeneratorConfig(seed=config.seed)),
            (bug.bug_id,),
            ("p4c",),
            config.max_tests_per_program,
            scope="matrix",
            sequence_length=config.sequence_length,
        )
        store = ArtifactStore(config.artifact_path)
        assert len(store) == len(store.load(key)) > 0


class TestArtifactStore:
    def test_load_ignores_other_keys_and_garbage(self, tmp_path):
        path = os.path.join(str(tmp_path), "store.jsonl")
        store = ArtifactStore(path)
        outcome = UnitOutcome(program_index=0, platform="p4c", status="clean")
        store.append("key-a", outcome)
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"key": "key-b", "outcome": outcome.to_dict()}) + "\n")
        loaded = store.load("key-a")
        assert set(loaded) == {(0, "p4c")}
        assert store.load("key-b")[(0, "p4c")] == outcome
        assert store.load("key-c") == {}

    def test_campaign_key_sensitivity(self):
        generator = GeneratorConfig(seed=0)
        base = campaign_key(generator, ("a",), ("p4c",), 4)
        assert base == campaign_key(generator, ("a",), ("p4c",), 4)
        assert base != campaign_key(GeneratorConfig(seed=1), ("a",), ("p4c",), 4)
        assert base != campaign_key(generator, ("b",), ("p4c",), 4)
        assert base != campaign_key(generator, ("a",), ("bmv2",), 4)
        assert base != campaign_key(generator, ("a",), ("p4c",), 5)
        assert base != campaign_key(generator, ("a",), ("p4c",), 4, scope="matrix")


class TestPerPlatformRejection:
    def test_p4c_rejection_does_not_mask_backend_findings(self, monkeypatch):
        # The legacy serial loop returned early when p4c rejected a
        # program, so the back ends -- which compile with a *different*
        # defect set -- were never exercised.  Force every p4c unit to
        # reject and check the back-end oracle still files its findings.
        from repro.core.engine import stages

        monkeypatch.setattr(
            stages, "_p4c_stage", lambda unit, program, source: ("rejected", [])
        )
        spec = CampaignSpec(
            programs=10,
            generator=GeneratorConfig(seed=7),
            enabled_bugs=("tofino_slice_assignment_drop",),
            platforms=("p4c", "tofino"),
        )
        stats = CampaignEngine(spec).run()
        assert stats.programs_rejected == 10
        platforms = {report.platform for report in stats.tracker.reports}
        assert platforms == {"tofino"}
