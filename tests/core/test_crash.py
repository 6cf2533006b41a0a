"""Tests for crash-bug detection (paper §4) and signature dedup.

Crash signatures are the campaign's deduplication key: two crashes with
the same root cause must map onto one filed report even when the
surrounding tracebacks differ (different trigger programs, different
messages), and two different root causes must never collapse.  The
crash finding itself comes from the one platform oracle,
:func:`repro.core.reduce.oracles.platform_verdict`.
"""

from repro.compiler import P4Compiler
from repro.core.bugs import BugKind, BugLocation
from repro.core.engine.merge import CampaignStatistics, OutcomeMerger
from repro.core.engine.units import FindingRecord, UnitOutcome
from repro.core.reduce.oracles import platform_verdict
from repro.p4 import emit_program, parse_program

PRELUDE = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
"""

SHIFT_PROGRAM = PRELUDE + """
control ingress(inout Headers hdr) {
    apply {
        hdr.h.a = hdr.h.b << 8w9;
    }
}
"""

#: A table with more keys than actions: BMv2's seeded lowering crash.
TWO_KEY_TABLE_PROGRAM = PRELUDE + """
control ingress(inout Headers hdr) {
    action set_a() { hdr.h.a = 8w1; }
    table t {
        key = { hdr.h.a : exact; hdr.h.b : exact; }
        actions = { set_a(); }
        default_action = set_a();
    }
    apply { t.apply(); }
}
"""


def verdict(source, platform, *bugs):
    program = parse_program(source)
    return platform_verdict(program, emit_program(program), platform, set(bugs))


def crash_outcome(
    index: int, message: str, signature: str, pass_name="TypeChecking", platform="p4c"
):
    return UnitOutcome(
        program_index=index,
        platform=platform,
        status="finding",
        findings=[
            FindingRecord(
                kind="crash",
                platform=platform,
                pass_name=pass_name,
                description=message,
                signature=signature,
            )
        ],
        source=f"// trigger {index}",
    )


class TestCrashVerdicts:
    def test_clean_compilation_is_not_a_finding(self):
        assert verdict(SHIFT_PROGRAM, "p4c") == ("clean", None)

    def test_graceful_rejection_is_not_a_finding(self):
        rejected = SHIFT_PROGRAM.replace("hdr.h.b << 8w9", "16w1")
        assert verdict(rejected, "p4c") == ("rejected", None)
        assert verdict(rejected, "bmv2") == ("rejected", None)

    def test_p4c_crash_yields_its_signature_and_pass(self):
        status, finding = verdict(
            SHIFT_PROGRAM, "p4c", "strength_reduction_negative_slice"
        )
        assert status == "finding"
        assert finding.kind == "crash"
        assert finding.platform == "p4c"
        assert finding.signature == "negative-slice-index"
        assert finding.pass_name == "StrengthReduction"
        assert "StrengthReduction" in finding.description

    def test_backend_crash_names_the_backend_pass(self):
        status, finding = verdict(
            TWO_KEY_TABLE_PROGRAM, "bmv2", "bmv2_table_key_order_crash"
        )
        assert status == "finding"
        assert finding.kind == "crash"
        assert finding.platform == "bmv2"
        assert finding.signature == "bmv2-key-action-invariant"
        assert finding.pass_name == "Bmv2Lowering"
        # The same program compiles cleanly without the seeded defect.
        assert verdict(TWO_KEY_TABLE_PROGRAM, "bmv2")[1] is None


class TestMergeDeduplication:
    def test_same_signature_files_one_report(self):
        # Two programs hit the same assertion: one report, and the sorted
        # merge picks the lowest program index as the representative.
        merger = OutcomeMerger(enabled_bugs=())
        stats = merger.merge(
            [
                crash_outcome(3, "assert failed at 0xbeef", "width-assert"),
                crash_outcome(1, "assert failed at 0xcafe", "width-assert"),
            ],
            CampaignStatistics(),
        )
        assert stats.crash_findings == 2
        assert len(stats.tracker) == 1
        report = stats.tracker.reports[0]
        assert report.identifier == "p4c:width-assert"
        assert report.trigger_source == "// trigger 1"
        assert merger.provenance[report.identifier].program_index == 1

    def test_same_signature_on_two_platforms_files_two_reports(self):
        # The platform scopes the dedup key: one signature seen by two
        # platforms is two bugs.
        merger = OutcomeMerger(enabled_bugs=())
        stats = merger.merge(
            [
                crash_outcome(0, "boom", "sig", platform="p4c"),
                crash_outcome(0, "boom", "sig", pass_name="Bmv2Lowering", platform="bmv2"),
            ],
            CampaignStatistics(),
        )
        assert {r.identifier for r in stats.tracker.reports} == {"p4c:sig", "bmv2:sig"}

    def test_different_signatures_file_separate_reports(self):
        merger = OutcomeMerger(enabled_bugs=())
        stats = merger.merge(
            [
                crash_outcome(0, "boom", "width-assert"),
                crash_outcome(1, "boom", "null-deref"),
            ],
            CampaignStatistics(),
        )
        assert len(stats.tracker) == 2
        assert {r.identifier for r in stats.tracker.reports} == {
            "p4c:width-assert",
            "p4c:null-deref",
        }


class TestMergeLocation:
    """A finding no seeded defect explains is filed where its pass lives."""

    @staticmethod
    def semantic_report(pass_name: str):
        outcome = UnitOutcome(
            program_index=0,
            platform="p4c",
            status="finding",
            findings=[
                FindingRecord(
                    kind="semantic",
                    platform="p4c",
                    pass_name=pass_name,
                    description="outputs diverge",
                )
            ],
            source="// trigger",
        )
        stats = OutcomeMerger(enabled_bugs=()).merge([outcome], CampaignStatistics())
        (report,) = stats.tracker.reports
        assert report.kind is BugKind.SEMANTIC
        assert report.seeded_bug_id is None
        return report

    def test_each_pipeline_pass_files_at_its_location(self):
        passes = P4Compiler().passes()
        assert len(passes) == 15
        for compiler_pass in passes:
            report = self.semantic_report(compiler_pass.name)
            assert report.identifier == f"p4c:semantic:{compiler_pass.name}"
            assert report.location.value == compiler_pass.location, compiler_pass.name

    def test_backend_files_at_back_end(self):
        assert self.semantic_report("backend").location is BugLocation.BACK_END
