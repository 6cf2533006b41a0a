"""Tests for the BMv2 and Tofino back ends (the shared packet-test harness
is tested over every registered back end in ``test_harness.py``)."""

import pytest

from repro.compiler import CompilerOptions
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.p4 import parse_program
from repro.targets import Bmv2Target, PacketTest, PtfRunner, TofinoTarget
from repro.targets.state import build_packet_state


PRELUDE = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}

struct Headers {
    Hdr_t h;
}
"""


def make_program(body: str, locals_: str = ""):
    return parse_program(
        PRELUDE
        + "control ingress(inout Headers hdr) {\n"
        + locals_
        + "\n    apply {\n"
        + body
        + "\n    }\n}\n"
    )


def make_packet(program, values):
    return build_packet_state(program, "Headers", values)


class TestBmv2Target:
    def test_compile_and_process(self):
        program = make_program("hdr.h.a = hdr.h.a + 8w1;")
        executable = Bmv2Target().compile(program)
        packet = make_packet(program, {"h.a": 4})
        output = executable.process(packet)
        assert output.read("h.a") == 5

    def test_type_error_raises_compiler_error(self):
        program = make_program("hdr.h.a = 16w1;")
        with pytest.raises(CompilerError):
            Bmv2Target().compile(program)

    def test_key_action_crash_bug(self):
        locals_ = """
    action noop() { }
    table t {
        key = {
            hdr.h.a : exact;
            hdr.h.b : exact;
        }
        actions = { noop(); }
        default_action = noop();
    }
"""
        program = make_program("t.apply();", locals_)
        Bmv2Target().compile(program)  # correct compiler accepts it
        buggy = Bmv2Target(CompilerOptions(enabled_bugs={"bmv2_table_key_order_crash"}))
        with pytest.raises(CompilerCrash):
            buggy.compile(program)

    def test_wide_field_truncation_bug_changes_output(self):
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
        packet = build_packet_state(program, "Headers", {})
        good = Bmv2Target().compile(program).process(packet)
        bad = (
            Bmv2Target(CompilerOptions(enabled_bugs={"bmv2_wide_field_truncation"}))
            .compile(program)
            .process(packet)
        )
        assert good.read("w.addr") == 0xAABBCCDDEEFF
        assert bad.read("w.addr") == 0xCCDDEEFF


class TestTofinoTarget:
    def test_compile_and_process(self):
        program = make_program("hdr.h.a = hdr.h.a + 8w1;")
        executable = TofinoTarget().compile(program)
        packet = make_packet(program, {"h.a": 4})
        assert executable.process(packet).read("h.a") == 5

    def test_table_limit_crash_bug(self):
        locals_parts = []
        applies = []
        for index in range(13):
            locals_parts.append(
                f"""
    action a{index}() {{ hdr.h.b = 8w{index}; }}
    table t{index} {{
        key = {{ hdr.h.a : exact; }}
        actions = {{ a{index}(); NoAction(); }}
        default_action = NoAction();
    }}
"""
            )
            applies.append(f"t{index}.apply();")
        program = make_program("\n".join(applies), "\n".join(locals_parts))
        TofinoTarget().compile(program)
        buggy = TofinoTarget(CompilerOptions(enabled_bugs={"tofino_table_limit_crash"}))
        with pytest.raises(CompilerCrash):
            buggy.compile(program)

    def test_exit_in_action_crash_bug(self):
        locals_ = """
    action stop() {
        hdr.h.b = 8w1;
        exit;
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { stop(); NoAction(); }
        default_action = NoAction();
    }
"""
        program = make_program("t.apply();", locals_)
        TofinoTarget().compile(program)
        buggy = TofinoTarget(CompilerOptions(enabled_bugs={"tofino_exit_in_action_crash"}))
        with pytest.raises(CompilerCrash):
            buggy.compile(program)

    def test_slice_drop_bug_changes_output(self):
        program = make_program("hdr.h.a[3:0] = 4w15;")
        packet = make_packet(program, {"h.a": 0})
        good = TofinoTarget().compile(program).process(packet)
        buggy_target = TofinoTarget(
            CompilerOptions(enabled_bugs={"tofino_slice_assignment_drop"})
        )
        bad = buggy_target.compile(program).process(make_packet(program, {"h.a": 0}))
        assert good.read("h.a") == 15
        assert bad.read("h.a") == 0


class TestPtfRunner:
    def test_ptf_detects_semantic_divergence(self):
        body = "if (!(hdr.h.a == 8w1)) { hdr.h.b = 8w5; } else { hdr.h.b = 8w6; }"
        program = make_program(body)
        packet = make_packet(program, {"h.a": 2})
        expected = {"h.b": 5}
        good = PtfRunner(TofinoTarget().compile(program)).run_test(
            PacketTest("flip", packet, expected)
        )
        assert good.passed
        buggy_target = TofinoTarget(
            CompilerOptions(enabled_bugs={"tofino_ternary_condition_flip"})
        )
        bad = PtfRunner(buggy_target.compile(program)).run_test(
            PacketTest("flip", make_packet(program, {"h.a": 2}), expected)
        )
        assert not bad.passed
