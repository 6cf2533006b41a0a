"""Scheduled campaigns end to end: determinism, provenance, wire compat.

The determinism contract under test: a scheduled campaign is a pure
function of its config — same reports, same knob-arm provenance and same
merged coverage counters at jobs=1, 2 and 4 (the last two on a local
worker fleet), and again after a store resume.  Plus the regression guard the
arm catalog ships with: with ``schedule_rounds=0`` the seed-0 corpus
stays byte-identical to the committed digest (the knobs the arms steer
gate before they draw, so adding them moved no RNG stream).
"""

import hashlib
import json

import pytest

from repro.core.bugs import BUG_REPORT_SCHEMA, BugKind, BugLocation, BugReport
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine.store import ArtifactStore, campaign_key
from repro.core.engine.units import UnitOutcome
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.schedule import ARM_CATALOG, round_plan
from repro.p4 import emit_program


BUGS = ("predication_nested_else_lost", "dead_code_removes_validity_call")
PLATFORMS = ("p4c", "bmv2")

#: sha256 over the emitted sources of seed-0 programs 0..11 (the static
#: corpus).  Knob arms must not perturb this: they only apply when
#: ``schedule_rounds > 0``, and the generator knobs they steer default to
#: "off" without consuming RNG draws.
SEED0_CORPUS_SHA256 = (
    "9f2564085b0425654261a748e72e474ebeab6784c1a13596a8cff74364f5a660"
)


def scheduled_config(**overrides) -> CampaignConfig:
    base = dict(
        programs=8,
        seed=0,
        enabled_bugs=BUGS,
        platforms=PLATFORMS,
        schedule_rounds=4,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def report_blob(stats) -> str:
    reports = sorted(stats.tracker.reports, key=lambda report: report.identifier)
    return json.dumps([report.to_dict() for report in reports], sort_keys=True)


class TestScheduledDeterminism:
    def test_jobs_1_2_4_byte_identical(self):
        serial = Campaign(scheduled_config()).run()
        fleet2 = Campaign(scheduled_config(jobs=2)).run()
        fleet4 = Campaign(scheduled_config(jobs=4)).run()
        assert report_blob(serial) == report_blob(fleet2) == report_blob(fleet4)
        assert serial.coverage() == fleet2.coverage() == fleet4.coverage()
        assert serial.coverage(), "scheduled campaign produced no coverage"
        assert serial.tracker.reports, "seeded campaign filed no reports"

    def test_reports_carry_arm_provenance(self):
        stats = Campaign(scheduled_config()).run()
        assert stats.tracker.reports
        for report in stats.tracker.reports:
            assert report.knob_arm, f"{report.identifier} lost its arm"
            arm = next(arm for arm in ARM_CATALOG if arm.name == report.knob_arm)
            assert report.knob_overrides == arm.overrides_dict()

    def test_fleet_counters_cover_every_round(self):
        stats = Campaign(scheduled_config(jobs=2)).run()
        assert stats.units_total == 16
        assert stats.counters["dist_outcomes_streamed"] == stats.units_total

    def test_unknown_platform_rejected_before_any_round_runs(self, tmp_path):
        path = tmp_path / "artifacts.jsonl"
        config = scheduled_config(platforms=("p4c", "nosuch"), artifact_path=str(path))
        with pytest.raises(ValueError, match="nosuch"):
            Campaign(config).run()
        assert not path.exists()  # no unit ran, so nothing was stored

    def test_static_campaign_files_unstamped_reports(self):
        stats = Campaign(scheduled_config(schedule_rounds=0)).run()
        assert stats.tracker.reports
        for report in stats.tracker.reports:
            assert report.knob_arm == ""
            assert report.knob_overrides == {}


class TestStoreResume:
    #: (programs, rounds): static; 4 rounds; 12 rounds, whose last two wrap
    #: around onto the arms (and store keys) of rounds 0 and 1; more rounds
    #: than programs, clamped to one program per round.
    PLANS = [(8, 0), (8, 4), (12, 12), (3, 12)]

    @pytest.mark.parametrize("programs, rounds", [(8, 4), (12, 12)])
    def test_provenance_survives_resume(self, tmp_path, programs, rounds):
        path = str(tmp_path / "artifacts.jsonl")
        config = scheduled_config(
            programs=programs, schedule_rounds=rounds, artifact_path=path
        )
        first = Campaign(config).run()
        second = Campaign(config).run()
        assert second.units_reused == second.units_total
        assert report_blob(first) == report_blob(second)
        assert first.coverage() == second.coverage()
        for report in second.tracker.reports:
            assert report.knob_arm

    @pytest.mark.parametrize("programs, rounds", PLANS)
    def test_each_round_is_stored_under_its_arm_key(self, tmp_path, programs, rounds):
        """A static campaign stores under the ``campaign`` key of its
        generator, a scheduled round under the ``scheduled`` key of its
        arm's steered generator; nothing else is stored."""

        path = str(tmp_path / "artifacts.jsonl")
        config = scheduled_config(
            programs=programs, schedule_rounds=rounds, artifact_path=path
        )
        Campaign(config).run()
        store = ArtifactStore(path)
        generator = GeneratorConfig(seed=config.seed)
        expected = {}
        for arm, indices in round_plan(programs, rounds):
            key = campaign_key(
                arm.apply(generator) if arm else generator,
                BUGS,
                PLATFORMS,
                config.max_tests_per_program,
                scope="scheduled" if arm else "campaign",
                sequence_length=config.sequence_length,
            )
            expected.setdefault(key, set()).update(
                (index, platform) for index in indices for platform in PLATFORMS
            )
        assert {key: set(store.load(key)) for key in expected} == expected
        assert len(store) == programs * len(PLATFORMS)

    def test_unit_outcome_coverage_round_trips(self):
        outcome = UnitOutcome(
            program_index=3,
            platform="p4c",
            status="ok",
            coverage={"pass:ConstantFolding": 1, "feature:table": 2},
        )
        restored = UnitOutcome.from_dict(outcome.to_dict())
        assert restored.coverage == outcome.coverage

    def test_pre_coverage_outcome_payload_loads(self):
        payload = UnitOutcome(program_index=0, platform="p4c", status="ok").to_dict()
        del payload["coverage"]  # wire format written before this field
        assert UnitOutcome.from_dict(payload).coverage == {}


class TestBugReportSchemaV4:
    def make_report(self, **overrides) -> BugReport:
        base = dict(
            identifier="p4c:some_bug",
            kind=BugKind.SEMANTIC,
            platform="p4c",
            location=BugLocation.MID_END,
            pass_name="Predication",
            description="else branch dropped",
            knob_arm="functions",
            knob_overrides={"p_function": 1.0},
        )
        base.update(overrides)
        return BugReport(**base)

    def test_v4_round_trip_preserves_provenance(self):
        report = self.make_report()
        payload = report.to_dict()
        assert payload["schema_version"] == BUG_REPORT_SCHEMA == 4
        restored = BugReport.from_dict(payload)
        assert restored == report
        assert restored.knob_arm == "functions"
        assert restored.knob_overrides == {"p_function": 1.0}

    def test_v3_payload_defaults_provenance(self):
        payload = self.make_report().to_dict()
        payload["schema_version"] = 3
        del payload["knob_arm"]
        del payload["knob_overrides"]
        restored = BugReport.from_dict(payload)
        assert restored.knob_arm == ""
        assert restored.knob_overrides == {}

    def test_newer_schema_is_rejected(self):
        payload = self.make_report().to_dict()
        payload["schema_version"] = BUG_REPORT_SCHEMA + 1
        with pytest.raises(ValueError, match="newer than supported"):
            BugReport.from_dict(payload)


class TestCorpusGuard:
    def test_seed0_corpus_digest_unchanged(self):
        generator = RandomProgramGenerator(GeneratorConfig(seed=0))
        digest = hashlib.sha256()
        for index in range(12):
            digest.update(emit_program(generator.generate_indexed(index)).encode())
        assert digest.hexdigest() == SEED0_CORPUS_SHA256
