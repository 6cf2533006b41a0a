"""Tests for the eBPF/XDP back end: verifier limits, defects, XDP runner."""

import pytest

from repro.compiler import CompilerOptions, compile_prefix
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.core.engine import reset_worker_state
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.metrics import COUNTERS
from repro.p4 import emit_program, parse_program
from repro.p4.builder import assign, const, control, header_decl, member, param, program, struct_decl
from repro.targets import EbpfTarget, PacketTest, TableEntry, XdpRunner
from repro.targets.ebpf import (
    EBPF_MAX_INSNS,
    EBPF_STACK_LIMIT_BYTES,
    EBPF_TAIL_CALL_LIMIT,
)
from repro.targets.state import build_packet_state


PRELUDE = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
    bit<16> c;
}

struct Headers {
    Hdr_t h;
}
"""

CYCLIC_PARSER = """
parser prs(inout Headers hdr) {
    state start {
        transition select (hdr.h.a) {
            8w1 : looper;
            default : accept;
        }
    }
    state looper {
        hdr.h.a = hdr.h.a + 8w1;
        transition select (hdr.h.a) {
            8w5 : accept;
            default : looper;
        }
    }
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


def make_packet(prog, values):
    return build_packet_state(prog, "Headers", values)


def buggy_target(*bugs: str) -> EbpfTarget:
    return EbpfTarget(CompilerOptions(enabled_bugs=set(bugs)))


def many_tables_program(count: int):
    locals_parts = []
    applies = []
    for index in range(count):
        locals_parts.append(
            f"""
    action a{index}() {{ hdr.h.b = 8w{index % 250}; }}
    table t{index} {{
        key = {{ hdr.h.a : exact; }}
        actions = {{ a{index}(); NoAction(); }}
        default_action = NoAction();
    }}
"""
        )
        applies.append(f"t{index}.apply();")
    return make_program("\n".join(applies), "\n".join(locals_parts))


class TestEbpfTarget:
    def test_compile_and_process(self):
        prog = make_program("hdr.h.a = hdr.h.a + 8w1;")
        executable = EbpfTarget().compile(prog)
        packet = make_packet(prog, {"h.a": 4})
        assert executable.process(packet).read("h.a") == 5

    def test_relinking_type_checks_at_most_once(self):
        """The stack-usage check reads the types memoised by the final
        source, so linking one compilation again checks nothing again."""

        program = RandomProgramGenerator(GeneratorConfig(seed=1)).generate_indexed(1)
        reset_worker_state()
        result = compile_prefix(program, emit_program(program), CompilerOptions())
        before = COUNTERS["typecheck_runs"]
        for _ in range(3):
            EbpfTarget().link(result)
        assert COUNTERS["typecheck_runs"] - before <= 1


class TestVerifierLimits:
    """Over-budget programs are graceful rejections, never findings."""

    def test_cyclic_parser_rejected_as_unbounded_loop(self):
        prog = parse_program(
            PRELUDE + CYCLIC_PARSER +
            "control ingress(inout Headers hdr) { apply { hdr.h.b = 8w1; } }"
        )
        with pytest.raises(CompilerError, match="unbounded loop"):
            EbpfTarget().compile(prog)

    def test_acyclic_parser_accepted(self):
        prog = parse_program(
            PRELUDE + """
parser prs(inout Headers hdr) {
    state start {
        transition select (hdr.h.a) {
            8w1 : next;
            default : accept;
        }
    }
    state next {
        hdr.h.b = 8w2;
        transition accept;
    }
}
control ingress(inout Headers hdr) { apply { hdr.h.a = 8w1; } }
"""
        )
        EbpfTarget().compile(prog)

    def test_exit_in_action_rejected(self):
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
        prog = make_program("t.apply();", locals_)
        with pytest.raises(CompilerError, match="tail-called actions"):
            EbpfTarget().compile(prog)

    def test_wide_headers_exceed_stack_cap(self):
        fields = "\n".join(f"    bit<48> f{i};" for i in range(90))
        source = (
            "header Big_t {\n" + fields + "\n}\n"
            "struct Headers { Big_t big; }\n"
            "control ingress(inout Headers hdr) { apply { hdr.big.f0 = 48w1; } }\n"
        )
        assert 90 * 48 > EBPF_STACK_LIMIT_BYTES * 8
        with pytest.raises(CompilerError, match="stack frame"):
            EbpfTarget().compile(parse_program(source))

    def test_stack_cap_counts_distinct_structs_with_same_field_names(self):
        # Two different struct types whose header fields share names: each
        # contributes its own storage (only re-binding the *same* struct to
        # parser and control is deduplicated).
        fields = "\n".join(f"    bit<48> f{i};" for i in range(45))
        source = (
            "header Big_t {\n" + fields + "\n}\n"
            "struct HeadersA { Big_t big; }\n"
            "struct HeadersB { Big_t big2; }\n"
            "parser prs(inout HeadersA hdr) {\n"
            "    state start { transition accept; }\n"
            "}\n"
            "control ingress(inout HeadersB hdr) { apply { hdr.big2.f0 = 48w1; } }\n"
        )
        assert 45 * 48 <= EBPF_STACK_LIMIT_BYTES * 8 < 2 * 45 * 48
        with pytest.raises(CompilerError, match="stack frame"):
            EbpfTarget().compile(parse_program(source))

    def test_instruction_budget_rejects_huge_programs(self):
        statements = [
            assign(member("hdr", "h", "a"), const(i % 250, 8))
            for i in range(EBPF_MAX_INSNS)
        ]
        prog = program(
            header_decl("Hdr_t", [("a", 8)]),
            struct_decl("Headers", [("h", "Hdr_t")]),
            control("ingress", [param("inout", "Headers", "hdr")], [], *statements),
        )
        with pytest.raises(CompilerError, match="instruction"):
            EbpfTarget().compile(prog)

    def test_tail_call_chain_limit(self):
        EbpfTarget().compile(many_tables_program(EBPF_TAIL_CALL_LIMIT))
        with pytest.raises(CompilerError, match="tail-call chain"):
            EbpfTarget().compile(many_tables_program(EBPF_TAIL_CALL_LIMIT + 1))


class TestSeededDefects:
    def test_verifier_loop_crash(self):
        prog = parse_program(
            PRELUDE + CYCLIC_PARSER +
            "control ingress(inout Headers hdr) { apply { hdr.h.b = 8w1; } }"
        )
        with pytest.raises(CompilerCrash) as excinfo:
            buggy_target("ebpf_verifier_loop_crash").compile(prog)
        assert excinfo.value.signature == "ebpf-verifier-loop-bound"

    def test_tail_call_limit_crash_on_supported_counts(self):
        prog = many_tables_program(13)
        EbpfTarget().compile(prog)  # the correct budget accepts 13 tables
        with pytest.raises(CompilerCrash) as excinfo:
            buggy_target("ebpf_tail_call_limit_crash").compile(many_tables_program(13))
        assert excinfo.value.signature == "ebpf-tail-call-limit"

    def test_map_lookup_miss_runs_first_action(self):
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
        prog = make_program("t.apply();", locals_)
        packet = make_packet(prog, {"h.a": 1, "h.b": 7})
        good = EbpfTarget().compile(prog).process(packet)
        assert good.read("h.b") == 7  # miss runs the declared default
        bad = (
            buggy_target("ebpf_map_lookup_miss_action")
            .compile(prog)
            .process(make_packet(prog, {"h.a": 1, "h.b": 7}))
        )
        assert bad.read("h.b") == 0  # falls through into set_b(0)

    def test_map_lookup_hit_unaffected_by_miss_defect(self):
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
        prog = make_program("t.apply();", locals_)
        entries = [TableEntry("t", (1,), "set_b", (42,))]
        bad = (
            buggy_target("ebpf_map_lookup_miss_action")
            .compile(prog)
            .process(make_packet(prog, {"h.a": 1}), entries)
        )
        assert bad.read("h.b") == 42

    def test_narrowing_cast_keeps_high_bits(self):
        prog = make_program("hdr.h.a = (bit<8>) hdr.h.c;")
        packet = make_packet(prog, {"h.c": 0x1234})
        good = EbpfTarget().compile(prog).process(packet)
        assert good.read("h.a") == 0x34
        bad = (
            buggy_target("ebpf_narrowing_cast_drop")
            .compile(prog)
            .process(make_packet(prog, {"h.c": 0x1234}))
        )
        assert bad.read("h.a") == 0x12

    def test_widening_cast_unaffected_by_cast_defect(self):
        prog = make_program("hdr.h.c = (bit<16>) hdr.h.a;")
        bad = (
            buggy_target("ebpf_narrowing_cast_drop")
            .compile(prog)
            .process(make_packet(prog, {"h.a": 0x12}))
        )
        assert bad.read("h.c") == 0x12

    def test_byte_order_swap_on_16bit_reads(self):
        prog = make_program("hdr.h.c = hdr.h.c | 16w0;")
        packet = make_packet(prog, {"h.c": 0x1234})
        good = EbpfTarget().compile(prog).process(packet)
        assert good.read("h.c") == 0x1234
        bad = (
            buggy_target("ebpf_byte_order_swap")
            .compile(prog)
            .process(make_packet(prog, {"h.c": 0x1234}))
        )
        assert bad.read("h.c") == 0x3412

    def test_byte_order_swap_leaves_8bit_reads_alone(self):
        prog = make_program("hdr.h.b = hdr.h.a;")
        bad = (
            buggy_target("ebpf_byte_order_swap")
            .compile(prog)
            .process(make_packet(prog, {"h.a": 0x12}))
        )
        assert bad.read("h.b") == 0x12


class TestXdpRunner:
    def test_xdp_detects_semantic_divergence(self):
        prog = make_program("hdr.h.a = (bit<8>) hdr.h.c;")
        expected = {"h.a": 0x34}
        good = XdpRunner(EbpfTarget().compile(prog)).run_test(
            PacketTest("cast", make_packet(prog, {"h.c": 0x1234}), expected)
        )
        assert good.passed
        bad = XdpRunner(buggy_target("ebpf_narrowing_cast_drop").compile(prog)).run_test(
            PacketTest("cast", make_packet(prog, {"h.c": 0x1234}), expected)
        )
        assert not bad.passed
