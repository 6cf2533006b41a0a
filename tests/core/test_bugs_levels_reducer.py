"""Tests for bug tracking, McKeeman-level classification and reduction."""

import pytest

from repro.compiler import CompilerOptions, compile_front_midend
from repro.core.bugs import BugKind, BugLocation, BugReport, BugStatus, BugTracker
from repro.core.levels import ConformanceLevel, classify_input_level
from repro.core.reduce import reduce_program
from repro.metrics import COUNTERS
from repro.p4 import ast, parse_program


def make_report(identifier, kind=BugKind.CRASH, platform="p4c", location=BugLocation.FRONT_END):
    return BugReport(
        identifier=identifier,
        kind=kind,
        platform=platform,
        location=location,
        pass_name="TypeChecking",
        description="test bug",
    )


class TestBugTracker:
    def test_filing_and_deduplication(self):
        tracker = BugTracker()
        assert tracker.file(make_report("a"))
        assert not tracker.file(make_report("a"))
        assert len(tracker) == 1

    def test_status_lifecycle(self):
        tracker = BugTracker()
        tracker.file(make_report("a"))
        tracker.confirm("a")
        assert tracker.reports[0].status == BugStatus.CONFIRMED

    def test_query_by_platform(self):
        tracker = BugTracker()
        tracker.file(make_report("a", kind=BugKind.CRASH, platform="p4c"))
        tracker.file(
            make_report("b", kind=BugKind.SEMANTIC, platform="tofino", location=BugLocation.BACK_END)
        )
        assert len(tracker.by_platform("tofino")) == 1

    def test_summary_table_shape(self):
        tracker = BugTracker()
        tracker.file(make_report("a", kind=BugKind.CRASH, platform="p4c"))
        tracker.file(make_report("b", kind=BugKind.SEMANTIC, platform="bmv2"))
        table = tracker.summary_table()
        assert table["crash"]["filed"]["p4c"] == 1
        assert table["semantic"]["filed"]["bmv2"] == 1
        assert table["total"]["all"] == 2

    def test_location_table_shape(self):
        tracker = BugTracker()
        tracker.file(make_report("a", location=BugLocation.FRONT_END))
        tracker.file(make_report("b", location=BugLocation.MID_END, platform="p4c"))
        tracker.file(make_report("c", location=BugLocation.BACK_END, platform="tofino"))
        table = tracker.location_table()
        assert table["front_end"]["p4c"] == 1
        assert table["mid_end"]["total"] == 1
        assert table["back_end"]["tofino"] == 1
        assert table["total"]["total"] == 3


VALID_PROGRAM = """
header Hdr_t { bit<8> a; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    apply { hdr.h.a = 8w1; }
}
"""


class TestConformanceLevels:
    def test_non_ascii_input(self):
        level, _ = classify_input_level("control ❄ {}")
        assert level == ConformanceLevel.SEQUENCE_OF_CHARACTERS

    def test_lexer_garbage(self):
        level, _ = classify_input_level("control $$$")
        assert level == ConformanceLevel.SEQUENCE_OF_CHARACTERS

    def test_syntax_error(self):
        level, _ = classify_input_level("header H { bit<8> a }")
        assert level == ConformanceLevel.SEQUENCE_OF_WORDS

    def test_type_error(self):
        source = VALID_PROGRAM.replace("8w1", "16w1")
        level, _ = classify_input_level(source)
        assert level == ConformanceLevel.SYNTACTICALLY_CORRECT

    def test_valid_program_reaches_level_five(self):
        level, detail = classify_input_level(VALID_PROGRAM)
        assert level == ConformanceLevel.STATICALLY_CONFORMING
        assert "compiles cleanly" in detail

    def test_levels_are_ordered(self):
        assert ConformanceLevel.SEQUENCE_OF_CHARACTERS < ConformanceLevel.MODEL_CONFORMING


#: Removing the declaration of ``x`` leaves a use the type check rejects.
DECLARED_LOCAL_PROGRAM = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    apply {
        bit<8> x = hdr.h.b;
        hdr.h.a = x + 8w1;
    }
}
"""


class TestReducer:
    def test_reduces_irrelevant_statements(self):
        source = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    apply {
        hdr.h.b = 8w7;
        hdr.h.a = 8w1 - 8w2;
        hdr.h.b = hdr.h.b + 8w1;
    }
}
"""
        program = parse_program(source)

        def still_fails(candidate, source):
            # "The bug" is the presence of the literal-underflow statement.
            return any(
                isinstance(node, ast.BinaryOp)
                and node.op == "-"
                and isinstance(node.left, ast.Constant)
                for node in ast.walk(candidate)
            )

        result = reduce_program(program, still_fails)
        statements = result.program.controls()[0].apply.statements
        assert len(statements) == 1
        assert still_fails(result.program, result.source)
        assert result.reproduced
        assert result.reduced_size < result.original_size
        assert 0.0 < result.reduction_ratio < 1.0

    def test_returns_original_when_predicate_fails(self):
        program = parse_program(VALID_PROGRAM)
        result = reduce_program(program, lambda candidate, source: False)
        assert result.program is program
        assert not result.reproduced
        assert result.reduction_ratio == 0.0

    def test_a_predicate_that_raises_on_the_original_is_counted(self):
        program = parse_program(VALID_PROGRAM)
        before = COUNTERS["reduce_predicate_errors"]
        # A one-argument predicate raises TypeError on every call.
        result = reduce_program(program, lambda candidate: True)
        assert not result.reproduced
        assert COUNTERS["reduce_predicate_errors"] - before == 1

    def test_every_candidate_error_is_counted_and_no_gate_rejection(self):
        program = parse_program(DECLARED_LOCAL_PROGRAM)
        calls = []

        def raises_after_the_original(candidate, source):
            calls.append(source)
            if len(calls) > 1:
                raise RuntimeError("predicate bug")
            return True

        before = COUNTERS["reduce_predicate_errors"]
        result = reduce_program(program, raises_after_the_original)
        assert result.reproduced
        assert COUNTERS["reduce_predicate_errors"] - before == len(calls) - 1 > 0
        # Candidates the type check rejected never reached the predicate.
        assert result.attempts > len(calls)

    def test_gate_rejections_are_not_predicate_errors(self):
        program = parse_program(DECLARED_LOCAL_PROGRAM)
        calls = []

        def always_fails(candidate, source):
            calls.append(source)
            return True

        before = COUNTERS["reduce_predicate_errors"]
        result = reduce_program(program, always_fails)
        assert result.reproduced
        assert result.attempts > len(calls)
        assert COUNTERS["reduce_predicate_errors"] == before

    def test_reduction_with_compiler_predicate(self):
        source = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    apply {
        hdr.h.b = hdr.h.a + 8w3;
        hdr.h.a = hdr.h.b << 8w9;
        hdr.h.b = hdr.h.b ^ 8w5;
    }
}
"""
        program = parse_program(source)
        options = CompilerOptions(enabled_bugs={"strength_reduction_negative_slice"})

        def still_crashes(candidate, source):
            try:
                return compile_front_midend(candidate.clone(), options).crashed
            except Exception:  # noqa: BLE001 - defensive: malformed candidates
                return False

        result = reduce_program(program, still_crashes)
        assert result.reproduced
        assert still_crashes(result.program, result.source)
        assert len(result.program.controls()[0].apply.statements) <= 2
