"""Seeded eBPF campaigns: detection, determinism, triage, registry errors.

The third-backend acceptance campaign: with the eBPF target in the platform
set, a seeded campaign must detect every ``ebpf_*`` catalog defect (crash
classes via crash observation, semantic classes via the symbolic packet
tests — the black-box fallback of paper §6), file byte-identical reports
under ``jobs=1`` and ``jobs=4``, and the filed reports must survive triage
reduction.  Unknown platforms are rejected before any unit is scheduled.
"""

import os

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine import run_unit
from repro.core.engine.units import FindingRecord, WorkUnit, build_units
from repro.core.generator import GeneratorConfig
from repro.core.reduce import build_predicate, program_size
from repro.p4 import check_program, emit_program, parse_program

EBPF_CRASH_DEFECTS = (
    "ebpf_verifier_loop_crash",
    "ebpf_tail_call_limit_crash",
)
EBPF_SEMANTIC_DEFECTS = (
    "ebpf_map_lookup_miss_action",
    "ebpf_narrowing_cast_drop",
    "ebpf_byte_order_swap",
)
EBPF_DEFECTS = EBPF_CRASH_DEFECTS + EBPF_SEMANTIC_DEFECTS

#: The reference seeded eBPF campaign: three platforms including the new
#: target, small enough for tier-1, large enough that every defect is
#: reliably reached (asserted below).  The generator enables the
#: narrowing-cast idiom and raises the many-tables burst — the knobs the
#: detection matrix steers for the same triggers.
SEED = 3
PROGRAMS = 14
PLATFORMS = ("p4c", "tofino", "ebpf")


def ebpf_config(**overrides) -> CampaignConfig:
    defaults = dict(
        programs=PROGRAMS,
        seed=SEED,
        generator=GeneratorConfig(seed=SEED, p_narrowing_cast=0.4, p_many_tables=0.3),
        platforms=PLATFORMS,
        jobs=1,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def reports(stats):
    return [report.to_dict() for report in stats.tracker.reports]


class TestEbpfDefectDetection:
    @pytest.mark.parametrize("bug_id", EBPF_DEFECTS)
    def test_campaign_detects_defect(self, bug_id):
        stats = Campaign(ebpf_config(enabled_bugs=(bug_id,))).run()
        report = stats.tracker.get(f"ebpf:{bug_id}")
        assert report is not None, [r.identifier for r in stats.tracker.reports]
        assert report.platform == "ebpf"
        assert report.seeded_bug_id == bug_id

    @pytest.mark.parametrize("bug_id", EBPF_DEFECTS)
    def test_detection_matrix_reaches_ebpf_defects(self, bug_id):
        records = Campaign(CampaignConfig(seed=0)).run_detection_matrix(
            bug_ids=[bug_id], programs_per_bug=20
        )
        assert records[0].detected
        expected = "crash" if bug_id in EBPF_CRASH_DEFECTS else "symbolic_execution"
        assert records[0].technique == expected

    def test_clean_ebpf_campaign_files_nothing(self):
        stats = Campaign(ebpf_config(programs=8, enabled_bugs=())).run()
        assert len(stats.tracker) == 0
        assert stats.oracle_errors == 0


class TestEbpfCampaignDeterminism:
    def test_parallel_matches_serial_byte_identical(self):
        serial = Campaign(ebpf_config(enabled_bugs=EBPF_DEFECTS, jobs=1)).run()
        parallel = Campaign(ebpf_config(enabled_bugs=EBPF_DEFECTS, jobs=4)).run()
        assert serial.tracker.reports
        assert {report.platform for report in serial.tracker.reports} >= {"ebpf"}
        assert reports(parallel) == reports(serial)


class TestEbpfTriage:
    @pytest.mark.parametrize("bug_id", EBPF_SEMANTIC_DEFECTS)
    def test_reduced_semantic_reports_survive_triage(self, bug_id):
        stats = Campaign(ebpf_config(enabled_bugs=(bug_id,), reduce=True)).run()
        report = stats.tracker.get(f"ebpf:{bug_id}")
        assert report is not None
        assert report.reduced_source, f"{bug_id} was not reduced"
        reduced = parse_program(report.reduced_source)
        check_program(reduced)
        assert program_size(reduced) <= program_size(
            parse_program(report.trigger_source)
        )
        # The reduced program still trips the *same* oracle: a packet-test
        # mismatch on the eBPF back end.
        finding = FindingRecord(
            kind="semantic",
            platform="ebpf",
            pass_name=report.pass_name,
            description=report.description,
        )
        still_fails = build_predicate(finding, "ebpf", (bug_id,), max_tests=4)
        assert still_fails(reduced, emit_program(reduced))
        assert report.reduction_ratio > 0

    def test_reduced_crash_report_keeps_its_signature(self):
        bug_id = "ebpf_verifier_loop_crash"
        stats = Campaign(ebpf_config(enabled_bugs=(bug_id,), reduce=True)).run()
        report = stats.tracker.get(f"ebpf:{bug_id}")
        assert report is not None
        assert report.reduced_source
        reduced = parse_program(report.reduced_source)
        finding = FindingRecord(
            kind="crash",
            platform="ebpf",
            pass_name="EbpfVerifier",
            description=report.description,
            signature="ebpf-verifier-loop-bound",
        )
        still_fails = build_predicate(finding, "ebpf", (bug_id,))
        assert still_fails(reduced, emit_program(reduced))


class TestPlatformRegistryErrors:
    def test_build_units_rejects_unknown_platform_by_name(self):
        with pytest.raises(ValueError) as excinfo:
            build_units(
                programs=range(2),
                platforms=("p4c", "xpu"),
                generator=GeneratorConfig(seed=0),
                enabled_bugs=(),
                max_tests=4,
            )
        assert "xpu" in str(excinfo.value)
        assert "ebpf" in str(excinfo.value)  # the message lists the registry

    def test_a_unit_on_an_unknown_platform_raises(self):
        unit = WorkUnit(
            program_index=0,
            platform="xpu",
            generator=GeneratorConfig(seed=0),
            enabled_bugs=(),
            max_tests=4,
        )
        with pytest.raises(ValueError, match="xpu"):
            run_unit(unit)

    def test_campaign_rejects_unknown_platform_before_scheduling(self, tmp_path):
        artifacts = tmp_path / "artifacts.jsonl"
        config = ebpf_config(
            platforms=("p4c", "ebpf", "xpu"), artifact_path=str(artifacts)
        )
        with pytest.raises(ValueError) as excinfo:
            Campaign(config).run()
        assert "xpu" in str(excinfo.value)
        # Rejected in the parent, before any unit ran: no store was written.
        assert not os.path.exists(artifacts)
