"""Tests for crash-bug classification (paper §4) and signature dedup.

Crash signatures are the campaign's deduplication key: two crashes with
the same root cause must map onto one filed report even when the
surrounding tracebacks differ (different trigger programs, different
messages), and two different root causes must never collapse.
"""

from repro.compiler import P4Compiler
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.compiler.options import CompilerOptions
from repro.compiler.pass_manager import CompilationResult
from repro.core.bugs import BugKind, BugLocation
from repro.core.crash import classify_compilation, crash_from_exception
from repro.core.engine.merge import CampaignStatistics, OutcomeMerger
from repro.core.engine.units import FindingRecord, UnitOutcome


def crash_result(message: str, signature: str, pass_name: str = "TypeChecking"):
    return CompilationResult(
        options=CompilerOptions(),
        crash=CompilerCrash(message, pass_name=pass_name, signature=signature),
    )


def crash_outcome(index: int, message: str, signature: str, pass_name="TypeChecking"):
    return UnitOutcome(
        program_index=index,
        platform="p4c",
        status="finding",
        findings=[
            FindingRecord(
                kind="crash",
                platform="p4c",
                pass_name=pass_name,
                description=message,
                signature=signature,
            )
        ],
        source=f"// trigger {index}",
    )


class TestClassifyCompilation:
    def test_clean_compilation_is_not_a_finding(self):
        result = CompilationResult(options=CompilerOptions())
        assert classify_compilation(result) is None

    def test_graceful_rejection_is_not_a_finding(self):
        result = CompilationResult(
            options=CompilerOptions(), error=CompilerError("bad program")
        )
        assert classify_compilation(result) is None

    def test_crash_produces_finding_with_signature_and_pass(self):
        result = crash_result("width underflow at node 0x7f01", "width-underflow")
        finding = classify_compilation(result, platform="p4c")
        assert finding is not None
        assert finding.signature == "width-underflow"
        assert finding.pass_name == "TypeChecking"
        assert finding.dedup_key == "p4c:width-underflow"


class TestSignatureStability:
    def test_equivalent_tracebacks_share_a_signature(self):
        # The same assertion firing on two different trigger programs
        # renders two different messages (addresses, values) but carries
        # one signature -- the dedup key must ignore the noise.
        first = classify_compilation(
            crash_result("assert width > 0 failed for node 0x7fa100", "width-assert")
        )
        second = classify_compilation(
            crash_result("assert width > 0 failed for node 0x55e0ff", "width-assert")
        )
        assert first.signature == second.signature
        assert first.dedup_key == second.dedup_key
        assert first.message != second.message

    def test_distinct_signatures_never_collapse(self):
        first = classify_compilation(crash_result("boom", "width-assert"))
        second = classify_compilation(crash_result("boom", "null-deref"))
        assert first.dedup_key != second.dedup_key

    def test_platform_scopes_the_dedup_key(self):
        p4c = classify_compilation(crash_result("boom", "sig"), platform="p4c")
        bmv2 = classify_compilation(crash_result("boom", "sig"), platform="bmv2")
        assert p4c.dedup_key != bmv2.dedup_key


class TestCrashFromException:
    def test_uses_exception_signature_and_pass(self):
        exc = CompilerCrash("exit in action", pass_name="ActionLowering",
                            signature="exit-in-action")
        finding = crash_from_exception(exc, "tofino")
        assert finding.signature == "exit-in-action"
        assert finding.pass_name == "ActionLowering"
        assert finding.platform == "tofino"

    def test_falls_back_for_foreign_exceptions(self):
        finding = crash_from_exception(ValueError("surprise"), "bmv2")
        assert finding.signature == "unhandled-ValueError"
        assert finding.pass_name == "backend"


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
