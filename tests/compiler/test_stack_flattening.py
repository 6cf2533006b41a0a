"""HeaderStackFlattening: lowering shape, equivalence, seeded defects.

The central invariant: the native stack semantics both interpreters apply
and the statement sequences the correct pass splices in are the *same*
recipes (:mod:`repro.p4.stacks`), so translation validation across the pass
must report EQUIVALENT for every well-formed stack program -- and must
attribute a divergence to ``HeaderStackFlattening`` the moment one of the
two seeded lowering defects is switched on.
"""

import pytest

from repro.compiler import CompilerOptions, compile_front_midend
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.reduce.oracles import packet_mismatch
from repro.core.validation import TranslationValidator, ValidationOutcome
from repro.p4 import ast, emit_program, parse_program
from repro.targets import BACKEND_REGISTRY
from repro.targets.execution import ConcreteInterpreter
from repro.targets.state import build_packet_state


STACK_PROGRAM = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}

struct Headers {
    Hdr_t h;
    Hdr_t hs[3];
}

parser prs(inout Headers hdr) {
    state start {
        pkt.extract(hdr.hs.next);
        transition select (hdr.hs.last.a) {
            8w1 : start;
            default : accept;
        }
    }
}

control ingress(inout Headers hdr) {
    apply {
        hdr.hs.push_front(1);
        if (hdr.h.a == 8w3) {
            hdr.hs[2].a = hdr.hs[1].b;
        }
        hdr.hs.pop_front(1);
        hdr.h.a = hdr.hs[0].a;
    }
}
"""

STACK_DEFECTS = (
    "stack_flatten_next_index_off_by_one",
    "stack_flatten_pop_validity_drop",
)


def _stack_ops(program: ast.Program):
    """All dynamic stack operations left in a program."""

    ops = []
    for node in ast.walk(program):
        if isinstance(node, ast.Member) and node.member in ("next", "last"):
            ops.append(node.member)
        if (
            isinstance(node, ast.MethodCallExpression)
            and isinstance(node.target, ast.Member)
            and node.target.member in ("push_front", "pop_front")
        ):
            ops.append(node.target.member)
    return ops


class TestLoweringShape:
    def test_no_dynamic_stack_operation_survives(self):
        result = compile_front_midend(STACK_PROGRAM, CompilerOptions())
        assert result.succeeded
        assert _stack_ops(result.final_program) == []

    def test_counter_scalar_field_added_and_initialised_once(self):
        result = compile_front_midend(STACK_PROGRAM, CompilerOptions())
        final = result.final_program
        struct = final.structs()[0]
        names = [name for name, _ in struct.fields]
        assert "hs_nextIndex" in names
        parser = final.parsers()[0]
        start = parser.state("start")
        first = start.statements[0]
        assert isinstance(first, ast.AssignmentStatement)
        assert "hs_nextIndex" in str(first.lhs)
        # The loop target is a duplicated start body, so the init runs once.
        loop_targets = {case.next_state for case in start.cases if case.value is not None}
        assert "start" not in loop_targets

    def test_pass_is_noop_without_stacks(self):
        source = STACK_PROGRAM.replace("    Hdr_t hs[3];\n", "").replace(
            """parser prs(inout Headers hdr) {
    state start {
        pkt.extract(hdr.hs.next);
        transition select (hdr.hs.last.a) {
            8w1 : start;
            default : accept;
        }
    }
}

""",
            "",
        )
        source = (
            source.replace("hdr.hs.push_front(1);", "")
            .replace("hdr.hs.pop_front(1);", "")
            .replace("hdr.hs[2].a = hdr.hs[1].b;", "hdr.h.b = 8w1;")
            .replace("hdr.h.a = hdr.hs[0].a;", "hdr.h.a = hdr.h.b;")
        )
        result = compile_front_midend(source, CompilerOptions())
        assert result.succeeded
        names = [snapshot.pass_name for snapshot in result.changed_snapshots()]
        assert "HeaderStackFlattening" not in names


class TestFlatteningEquivalence:
    def test_correct_pass_is_equivalent_on_the_reference_program(self):
        result = compile_front_midend(STACK_PROGRAM, CompilerOptions())
        report = TranslationValidator().validate_compilation(result)
        assert report.outcome == ValidationOutcome.EQUIVALENT, report.divergences

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_correct_pass_is_equivalent_on_generated_stack_programs(self, seed):
        generator = RandomProgramGenerator(
            GeneratorConfig(seed=seed, p_header_stack=1.0)
        )
        validator = TranslationValidator()
        for index in range(8):
            program = generator.generate_indexed(index)
            result = compile_front_midend(
                parse_program(emit_program(program)), CompilerOptions()
            )
            assert result.succeeded, (seed, index, result.crash or result.error)
            report = validator.validate_compilation(result)
            assert report.outcome == ValidationOutcome.EQUIVALENT, (
                seed,
                index,
                report.outcome,
                [d.pass_name for d in report.divergences],
            )

    @pytest.mark.parametrize("platform", ["bmv2", "tofino"])
    def test_backends_agree_with_symbolic_oracle_on_stack_programs(self, platform):
        spec = BACKEND_REGISTRY[platform]
        generator = RandomProgramGenerator(GeneratorConfig(seed=9, p_header_stack=1.0))
        for index in range(4):
            program = generator.generate_indexed(index)
            source = emit_program(program)
            target = spec.target_cls()
            executable = target.compile(program.clone())
            mismatch = packet_mismatch(program, source, executable, spec, 6)
            assert mismatch is None, (index, mismatch)


class TestSeededStackDefects:
    @pytest.mark.parametrize("bug_id", STACK_DEFECTS)
    def test_defect_diverges_in_the_flattening_pass(self, bug_id):
        result = compile_front_midend(
            STACK_PROGRAM, CompilerOptions(enabled_bugs={bug_id})
        )
        report = TranslationValidator().validate_compilation(result)
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG
        assert report.divergences[0].pass_name == "HeaderStackFlattening"

    def test_push_off_by_one_leaves_top_element_stale(self):
        source = """
header Hdr_t {
    bit<8> a;
}
struct Headers {
    Hdr_t hs[2];
}
control ingress(inout Headers hdr) {
    apply {
        hdr.hs.push_front(1);
    }
}
"""
        correct = compile_front_midend(source, CompilerOptions()).final_program
        buggy = compile_front_midend(
            source,
            CompilerOptions(enabled_bugs={"stack_flatten_next_index_off_by_one"}),
        ).final_program
        packet_values = {"hs[0].a": 7, "hs[1].a": 9}
        for program, expected_top in ((correct, 7), (buggy, 9)):
            packet = build_packet_state(program, "Headers", packet_values)
            out = ConcreteInterpreter(program).run(packet)
            assert out.headers["hs[1]"].get("a") == expected_top

    def test_pop_validity_drop_keeps_stale_validity(self):
        source = """
header Hdr_t {
    bit<8> a;
}
struct Headers {
    Hdr_t hs[2];
}
control ingress(inout Headers hdr) {
    apply {
        hdr.hs.pop_front(1);
    }
}
"""
        correct = compile_front_midend(source, CompilerOptions()).final_program
        buggy = compile_front_midend(
            source, CompilerOptions(enabled_bugs={"stack_flatten_pop_validity_drop"})
        ).final_program
        for program, expect_valid in ((correct, True), (buggy, False)):
            packet = build_packet_state(program, "Headers", {"hs[1].a": 5})
            packet.headers["hs[0]"].valid = False  # stale destination slot
            packet.headers["hs[1]"].valid = True
            out = ConcreteInterpreter(program).run(packet)
            assert out.headers["hs[0]"].valid is expect_valid


class TestNativeStackSemantics:
    """The native interpreters implement the documented P4-16 §8.17 moves."""

    def _run(self, body: str, values, validity):
        source = """
header Hdr_t {
    bit<8> a;
}
struct Headers {
    Hdr_t hs[3];
}
control ingress(inout Headers hdr) {
    apply {
        %s
    }
}
""" % body
        program = parse_program(source)
        packet = build_packet_state(program, "Headers", values)
        for name, valid in validity.items():
            packet.headers[name].valid = valid
        return ConcreteInterpreter(program).run(packet)

    def test_push_front_shifts_up_and_invalidates_front(self):
        out = self._run(
            "hdr.hs.push_front(1);",
            {"hs[0].a": 1, "hs[1].a": 2, "hs[2].a": 3},
            {"hs[0]": True, "hs[1]": True, "hs[2]": False},
        )
        assert out.headers["hs[0]"].valid is False
        assert out.headers["hs[1]"].valid is True
        assert out.headers["hs[1]"].get("a") == 1
        assert out.headers["hs[2]"].valid is True
        assert out.headers["hs[2]"].get("a") == 2

    def test_pop_front_shifts_down_and_invalidates_top(self):
        out = self._run(
            "hdr.hs.pop_front(2);",
            {"hs[0].a": 1, "hs[1].a": 2, "hs[2].a": 3},
            {"hs[0]": True, "hs[1]": False, "hs[2]": True},
        )
        assert out.headers["hs[0]"].valid is True
        assert out.headers["hs[0]"].get("a") == 3
        assert out.headers["hs[1]"].valid is False
        assert out.headers["hs[2]"].valid is False

    def test_same_named_stack_in_unused_struct_does_not_shadow(self):
        """Stack metadata comes from the *bound* parameter structs only.

        A same-named stack field in a struct no block binds must not
        override the real stack's size in the concrete interpreter.
        """

        source = """
header Hdr_t {
    bit<8> a;
}
struct Headers {
    Hdr_t hs[2];
}
struct Meta {
    Hdr_t hs[4];
}
control ingress(inout Headers hdr) {
    apply {
        hdr.hs.push_front(1);
    }
}
"""
        program = parse_program(source)
        interpreter = ConcreteInterpreter(program)
        assert interpreter.stacks["hs"][1] == 2
        packet = build_packet_state(program, "Headers", {"hs[0].a": 7})
        out = interpreter.run(packet)
        assert out.headers["hs[1]"].get("a") == 7

    def test_push_beyond_capacity_invalidates_everything(self):
        out = self._run(
            "hdr.hs.push_front(3);",
            {"hs[0].a": 1},
            {"hs[0]": True, "hs[1]": True, "hs[2]": True},
        )
        assert all(
            out.headers[f"hs[{i}]"].valid is False for i in range(3)
        )
