"""Integration tests for the bug-finding campaign (§7 methodology)."""

import pytest

from repro.compiler.bugs import BUG_CATALOG
from repro.core.bugs import BugKind, BugLocation
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.generator import GeneratorConfig


def small_generator(seed):
    """A compact generator configuration keeps the test-suite runtime low."""

    return GeneratorConfig(
        seed=seed, max_apply_statements=4, max_expression_depth=2, p_parser=0.2
    )


class TestCleanCampaign:
    def test_no_findings_when_no_bugs_enabled(self):
        campaign = Campaign(
            CampaignConfig(
                programs=6, seed=11, enabled_bugs=(), generator=small_generator(11)
            )
        )
        stats = campaign.run()
        assert stats.programs_generated == 6
        assert len(stats.tracker) == 0
        # No false alarms: our interpreter must not blame a correct compiler.
        assert stats.oracle_errors == 0


class TestSeededCampaign:
    def test_campaign_finds_enabled_p4c_bugs(self):
        enabled = (
            "constant_folding_no_mask",
            "strength_reduction_negative_slice",
            "exit_ignores_copy_out",
        )
        campaign = Campaign(
            CampaignConfig(programs=10, seed=3, enabled_bugs=enabled, platforms=("p4c",), generator=small_generator(3))
        )
        stats = campaign.run()
        found = {report.seeded_bug_id for report in stats.tracker.reports}
        assert found & set(enabled)
        assert stats.crash_findings + stats.semantic_findings >= 1

    def test_reports_carry_trigger_program(self):
        campaign = Campaign(
            CampaignConfig(
                programs=10,
                seed=5,
                enabled_bugs=("constant_folding_no_mask",),
                platforms=("p4c",),
                generator=small_generator(5),
            )
        )
        stats = campaign.run()
        assert stats.tracker.reports
        for report in stats.tracker.reports:
            assert "control ingress" in report.trigger_source

    def test_backend_campaign_finds_tofino_bug(self):
        campaign = Campaign(
            CampaignConfig(
                programs=10,
                seed=7,
                enabled_bugs=("tofino_slice_assignment_drop",),
                platforms=("tofino",),
                generator=small_generator(7),
            )
        )
        stats = campaign.run()
        platforms = {report.platform for report in stats.tracker.reports}
        assert platforms <= {"tofino"}
        assert len(stats.tracker) >= 1

    def test_summary_and_location_tables(self):
        campaign = Campaign(
            CampaignConfig(
                programs=8,
                seed=9,
                enabled_bugs=("constant_folding_no_mask", "strength_reduction_negative_slice"),
                platforms=("p4c",),
                generator=small_generator(9),
            )
        )
        stats = campaign.run()
        summary = stats.summary_table()
        location = stats.location_table()
        assert summary["total"]["all"] == len(stats.tracker)
        assert location["total"]["total"] == len(stats.tracker)


class TestInvalidTransformationAttribution:
    """An emitted program that no longer parses is filed under its defect.

    The catalog files invalid transformations under the crash kind; the
    merge used to look for a semantic defect instead, which left the report
    unattributed or blamed a semantic defect of the same pass.
    """

    def _reports(self, enabled):
        stats = Campaign(
            CampaignConfig(programs=30, seed=0, enabled_bugs=enabled, platforms=("p4c",))
        ).run()
        return {report.identifier: report for report in stats.tracker.reports}

    def test_attributed_when_enabled_alone(self):
        reports = self._reports(("midend_emit_missing_parens",))
        assert "p4c:invalid_transformation:Predication" not in reports
        report = reports["p4c:midend_emit_missing_parens"]
        assert report.kind == BugKind.INVALID_TRANSFORMATION
        assert report.seeded_bug_id == "midend_emit_missing_parens"

    def test_not_misfiled_under_a_semantic_defect_of_the_same_pass(self):
        reports = self._reports(
            ("midend_emit_missing_parens", "predication_nested_else_lost")
        )
        report = reports["p4c:midend_emit_missing_parens"]
        assert report.kind == BugKind.INVALID_TRANSFORMATION
        nested = reports.get("p4c:predication_nested_else_lost")
        assert nested is None or nested.kind == BugKind.SEMANTIC


class TestDetectionMatrix:
    def test_detects_representative_bugs_of_each_location(self):
        campaign = Campaign(CampaignConfig(seed=21, generator=small_generator(21)))
        bug_ids = [
            "constant_folding_no_mask",       # mid end, semantic
            "strength_reduction_negative_slice",  # front end (filed), crash
            "tofino_slice_assignment_drop",   # back end, semantic
        ]
        # 50 programs: the sharded child-seed corpus needs 48 programs at
        # this seed before StrengthReduction sees a trigger idiom.
        records = campaign.run_detection_matrix(bug_ids, programs_per_bug=50)
        by_id = {record.bug.bug_id: record for record in records}
        assert by_id["constant_folding_no_mask"].detected
        assert by_id["constant_folding_no_mask"].technique == "translation_validation"
        assert by_id["strength_reduction_negative_slice"].detected
        assert by_id["strength_reduction_negative_slice"].technique == "crash"
        assert by_id["tofino_slice_assignment_drop"].detected
        assert by_id["tofino_slice_assignment_drop"].technique == "symbolic_execution"

    def test_matrix_covers_catalog_entries(self):
        campaign = Campaign(CampaignConfig(seed=2, generator=small_generator(2)))
        records = campaign.run_detection_matrix(
            ["bmv2_wide_field_truncation"], programs_per_bug=10
        )
        assert records[0].bug is BUG_CATALOG["bmv2_wide_field_truncation"]
        assert records[0].detected
