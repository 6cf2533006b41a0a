"""Tests for symbolic-execution test generation (§6)."""

import pytest

from repro.compiler import CompilerOptions
from repro.core.engine import stages
from repro.core.engine.units import STATUS_CLEAN, WorkUnit
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.interpreter import InterpreterError, SymbolicInterpreter
from repro.core.testgen import SymbolicTestGenerator
from repro.p4 import emit_program, parse_program
from repro.targets import Bmv2Target, PacketTest, PtfRunner, StfRunner, TofinoTarget


PRELUDE = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}

struct Headers {
    Hdr_t h;
    Hdr_t eth;
}
"""


def make_program(body: str, locals_: str = "", extra: str = ""):
    return parse_program(
        PRELUDE
        + extra
        + "control ingress(inout Headers hdr) {\n"
        + locals_
        + "\n    apply {\n"
        + body
        + "\n    }\n}\n"
    )


def run_tests_against(program, target, runner_cls, max_tests=6):
    generator = SymbolicTestGenerator(program, max_tests=max_tests)
    tests = generator.generate()
    assert tests, "expected at least one generated test"
    executable = target.compile(program)
    runner = runner_cls(executable)
    results = []
    for generated in tests:
        packet = generated.build_packet(program)
        results.append(
            runner.run_test(
                PacketTest(
                    name=generated.name,
                    input_packet=packet,
                    expected=generated.expected,
                    entries=generated.entries,
                    ignore_paths=generated.ignore_paths,
                )
            )
        )
    return results


class TestTestGeneration:
    def test_generates_path_covering_tests(self):
        program = make_program(
            "if (hdr.h.a == 8w1) { hdr.h.b = 8w10; } else { hdr.h.b = 8w20; }"
        )
        tests = SymbolicTestGenerator(program, max_tests=8).generate()
        values = {test.input_values.get("h.a") for test in tests}
        # Both sides of the branch should be exercised.
        assert any(value == 1 for value in values)
        assert any(value not in (None, 1) for value in values)

    def test_prefers_nonzero_inputs(self):
        program = make_program("hdr.eth.a = hdr.h.a;")
        tests = SymbolicTestGenerator(program, max_tests=1).generate()
        assert tests[0].input_values["h.a"] != 0

    def test_table_entries_derived_from_model(self):
        locals_ = """
    action set_b(bit<8> val) {
        hdr.h.b = val;
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { set_b(); NoAction(); }
        default_action = NoAction();
    }
"""
        program = make_program("t.apply();", locals_=locals_)
        tests = SymbolicTestGenerator(program, max_tests=8).generate()
        assert any(test.entries for test in tests)
        for test in tests:
            for entry in test.entries:
                assert entry.table == "t"
                assert entry.action in ("set_b", "NoAction")

    def test_expected_marks_invalid_headers(self):
        program = make_program("hdr.h.setInvalid();")
        tests = SymbolicTestGenerator(program, max_tests=1).generate()
        assert tests[0].expected["h.$valid"] is False
        assert tests[0].expected["h.a"] is None


class TestOracleAgreesWithCorrectTargets:
    BODIES = [
        "hdr.h.a = hdr.h.a + 8w3; hdr.eth.b = hdr.h.a ^ hdr.h.b;",
        "if (hdr.h.a < hdr.h.b) { hdr.eth.a = 8w1; } else { hdr.eth.a = 8w2; }",
        "hdr.h.setInvalid(); hdr.eth.a = hdr.h.a; hdr.h.setValid();",
        "bit<8> tmp = hdr.h.a * 8w4; hdr.h.b = tmp - 8w2;",
        "exit; hdr.h.a = 8w9;",
    ]

    @pytest.mark.parametrize("body", BODIES)
    def test_bmv2_oracle_agreement(self, body):
        program = make_program(body)
        results = run_tests_against(program, Bmv2Target(), StfRunner)
        for result in results:
            assert result.passed, (result.mismatches, result.error)

    @pytest.mark.parametrize("body", BODIES)
    def test_tofino_oracle_agreement(self, body):
        program = make_program(body)
        results = run_tests_against(program, TofinoTarget(), PtfRunner)
        for result in results:
            assert result.passed, (result.mismatches, result.error)

    def test_oracle_agreement_with_tables(self):
        locals_ = """
    action set_b(bit<8> val) {
        hdr.h.b = val;
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { set_b(); NoAction(); }
        default_action = NoAction();
    }
"""
        program = make_program("t.apply(); hdr.eth.a = hdr.h.b;", locals_=locals_)
        results = run_tests_against(program, Bmv2Target(), StfRunner)
        for result in results:
            assert result.passed, (result.mismatches, result.error)

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_agreement_on_generated_programs(self, seed):
        program = RandomProgramGenerator(
            GeneratorConfig(seed=seed, p_parser=0.0)
        ).generate()
        results = run_tests_against(program, Bmv2Target(), StfRunner, max_tests=3)
        for result in results:
            assert result.passed, (result.mismatches, result.error)


class TestBlackBoxBugDetection:
    def test_tofino_semantic_bug_detected_without_ir_access(self):
        body = "if (!(hdr.h.a == 8w1)) { hdr.h.b = 8w5; } else { hdr.h.b = 8w6; }"
        program = make_program(body)
        buggy = TofinoTarget(
            CompilerOptions(enabled_bugs={"tofino_ternary_condition_flip"})
        )
        results = run_tests_against(program, buggy, PtfRunner)
        assert any(not result.passed for result in results)

    def test_tofino_slice_drop_detected(self):
        program = make_program("hdr.h.a[3:0] = 4w15; hdr.eth.a = hdr.h.a;")
        buggy = TofinoTarget(
            CompilerOptions(enabled_bugs={"tofino_slice_assignment_drop"})
        )
        results = run_tests_against(program, buggy, PtfRunner)
        assert any(not result.passed for result in results)

    def test_bmv2_wide_field_truncation_detected(self):
        source = """
header Wide_t {
    bit<48> addr;
}
struct Headers {
    Wide_t w;
}
control ingress(inout Headers hdr) {
    apply {
        hdr.w.addr = 48w0xAABBCCDDEEFF;
    }
}
"""
        program = parse_program(source)
        buggy = Bmv2Target(CompilerOptions(enabled_bugs={"bmv2_wide_field_truncation"}))
        results = run_tests_against(program, buggy, StfRunner)
        assert any(not result.passed for result in results)


#: Each block interprets on its own, but the pipeline view raises: the
#: parser writes through a parameter name the ingress control does not use.
PIPELINE_RAISES = PRELUDE + """
parser prs(inout Headers hs) {
    state start {
        hs.h.a = 8w1;
        transition accept;
    }
}
control ingress(inout Headers hdr) {
    apply { hdr.h.b = hdr.h.a + 8w2; }
}
"""


class TestAbstentionsAreCounted:
    def test_each_backend_unit_counts_its_abstention(self, monkeypatch):
        program = parse_program(PIPELINE_RAISES)
        SymbolicInterpreter(program).interpret()
        with pytest.raises(InterpreterError):
            SymbolicInterpreter(program).interpret_pipeline()
        generated = stages.GeneratedProgram(program, emit_program(program))
        monkeypatch.setattr(stages, "stage_generate", lambda unit: generated)
        stages.reset_worker_state()
        abstentions = {}
        for platform in ("p4c", "bmv2", "tofino"):
            outcome = stages.run_unit(WorkUnit(0, platform, GeneratorConfig(seed=1)))
            assert outcome.status == STATUS_CLEAN
            abstentions[platform] = outcome.counters["testgen_abstentions"]
        # tofino's unit reads bmv2's cached abstention, and counts it too.
        assert abstentions == {"p4c": 0, "bmv2": 1, "tofino": 1}
