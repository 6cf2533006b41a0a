"""Seeded stack campaigns: detection, determinism, triage survival.

The PR 4 acceptance campaign: with stack generation enabled, a seeded
reference campaign must detect both ``HeaderStackFlattening`` lowering
defects (as divergences attributed to that pass), file byte-identical
reports under ``jobs=1`` and ``jobs=4``, and the filed reports must survive
triage reduction -- the shrunken trigger still trips the original oracle.
"""

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine.units import FindingRecord
from repro.core.generator import GeneratorConfig
from repro.core.reduce import build_predicate, program_size
from repro.p4 import check_program, emit_program, parse_program

STACK_DEFECTS = (
    "stack_flatten_next_index_off_by_one",
    "stack_flatten_pop_validity_drop",
)

#: The reference seeded stack campaign: small enough for tier-1, large
#: enough that both defects are reliably reached (asserted below).
SEED = 11
PROGRAMS = 12


def stack_config(**overrides) -> CampaignConfig:
    defaults = dict(
        programs=PROGRAMS,
        seed=SEED,
        generator=GeneratorConfig(seed=SEED, p_header_stack=0.8),
        platforms=("p4c",),
        jobs=1,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def reports(stats):
    return [report.to_dict() for report in stats.tracker.reports]


class TestStackDefectDetection:
    @pytest.mark.parametrize("bug_id", STACK_DEFECTS)
    def test_campaign_detects_defect_via_translation_validation(self, bug_id):
        stats = Campaign(stack_config(enabled_bugs=(bug_id,))).run()
        identifiers = [report.identifier for report in stats.tracker.reports]
        assert f"p4c:{bug_id}" in identifiers
        report = stats.tracker.get(f"p4c:{bug_id}")
        assert report.pass_name == "HeaderStackFlattening"
        assert report.seeded_bug_id == bug_id

    def test_combined_campaign_attributes_to_the_flattening_pass(self):
        stats = Campaign(stack_config(enabled_bugs=STACK_DEFECTS)).run()
        assert stats.tracker.reports
        assert all(
            report.pass_name == "HeaderStackFlattening"
            for report in stats.tracker.reports
        )

    @pytest.mark.parametrize("bug_id", STACK_DEFECTS)
    def test_detection_matrix_reaches_stack_defects(self, bug_id):
        records = Campaign(CampaignConfig(seed=0)).run_detection_matrix(
            bug_ids=[bug_id], programs_per_bug=20
        )
        assert records[0].detected
        assert records[0].technique == "translation_validation"

    def test_clean_stack_campaign_files_nothing(self):
        stats = Campaign(
            stack_config(programs=6, enabled_bugs=(), platforms=("p4c", "bmv2", "tofino"))
        ).run()
        assert len(stats.tracker) == 0
        assert stats.oracle_errors == 0


class TestStackCampaignDeterminism:
    def test_parallel_matches_serial_byte_identical(self):
        serial = Campaign(stack_config(enabled_bugs=STACK_DEFECTS, jobs=1)).run()
        parallel = Campaign(stack_config(enabled_bugs=STACK_DEFECTS, jobs=4)).run()
        assert serial.tracker.reports
        assert reports(parallel) == reports(serial)


class TestStackTriage:
    @pytest.mark.parametrize("bug_id", STACK_DEFECTS)
    def test_reduced_stack_reports_survive_triage(self, bug_id):
        stats = Campaign(
            stack_config(enabled_bugs=(bug_id,), reduce=True)
        ).run()
        report = stats.tracker.get(f"p4c:{bug_id}")
        assert report is not None
        assert report.reduced_source, f"{bug_id} was not reduced"
        reduced = parse_program(report.reduced_source)
        check_program(reduced)
        assert program_size(reduced) <= program_size(
            parse_program(report.trigger_source)
        )
        # The reduced program still trips the *same* oracle: a divergence
        # whose first defective pass is HeaderStackFlattening.
        finding = FindingRecord(
            kind="semantic",
            platform="p4c",
            pass_name=report.pass_name,
            description=report.description,
        )
        still_fails = build_predicate(finding, "p4c", (bug_id,), max_tests=4)
        assert still_fails(reduced, emit_program(reduced))
        assert report.reduction_ratio > 0
