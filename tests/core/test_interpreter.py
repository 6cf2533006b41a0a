"""Tests for the symbolic interpreter.

The central property: for any concrete input, evaluating the symbolic
output formulas must agree with the concrete reference interpreter.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import smt
from repro.compiler import CompilerOptions, P4Compiler
from repro.core.engine import reset_worker_state
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.interpreter import SymbolicInterpreter
from repro.p4 import parse_program
from repro.targets.execution import ConcreteInterpreter
from repro.targets.state import TableEntry, build_packet_state


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


def symbolic_outputs(program):
    return SymbolicInterpreter(program).interpret_control(program.controls()[0])


def eval_output(semantics, path, assignment):
    return smt.evaluate(semantics.outputs[path], assignment, default=0)


class TestBasicSemantics:
    def test_constant_assignment(self):
        program = make_program("hdr.h.a = 8w7;")
        semantics = symbolic_outputs(program)
        assert eval_output(semantics, "h.a", {"h.$valid": True}) == 7

    def test_passthrough_keeps_input_symbol(self):
        program = make_program("hdr.h.a = hdr.h.b;")
        semantics = symbolic_outputs(program)
        assert eval_output(semantics, "h.a", {"h.b": 99, "h.$valid": True}) == 99

    def test_arithmetic_wraps(self):
        program = make_program("hdr.h.a = hdr.h.a + 8w200;")
        semantics = symbolic_outputs(program)
        assert eval_output(semantics, "h.a", {"h.a": 100, "h.$valid": True}) == 44

    def test_if_else_selects_branch(self):
        program = make_program(
            "if (hdr.h.a == 8w1) { hdr.h.b = 8w10; } else { hdr.h.b = 8w20; }"
        )
        semantics = symbolic_outputs(program)
        assert eval_output(semantics, "h.b", {"h.a": 1, "h.$valid": True}) == 10
        assert eval_output(semantics, "h.b", {"h.a": 2, "h.$valid": True}) == 20
        assert len(semantics.branch_conditions) == 1

    def test_exit_skips_rest(self):
        program = make_program("hdr.h.a = 8w1; exit; hdr.h.a = 8w2;")
        semantics = symbolic_outputs(program)
        assert eval_output(semantics, "h.a", {"h.$valid": True}) == 1

    def test_conditional_exit(self):
        program = make_program(
            "if (hdr.h.a == 8w1) { exit; } hdr.h.b = 8w5;"
        )
        semantics = symbolic_outputs(program)
        assert eval_output(semantics, "h.b", {"h.a": 1, "h.b": 0, "h.$valid": True}) == 0
        assert eval_output(semantics, "h.b", {"h.a": 2, "h.b": 0, "h.$valid": True}) == 5

    def test_slice_assignment(self):
        program = make_program("hdr.h.a[3:0] = 4w15;")
        semantics = symbolic_outputs(program)
        assert eval_output(semantics, "h.a", {"h.a": 0xA0, "h.$valid": True}) == 0xAF

    def test_local_variables(self):
        program = make_program("bit<8> tmp = hdr.h.a; tmp = tmp + 8w1; hdr.h.b = tmp;")
        semantics = symbolic_outputs(program)
        assert eval_output(semantics, "h.b", {"h.a": 4, "h.$valid": True}) == 5


class TestHeaderValidity:
    def test_invalid_output_header_fields_collapse(self):
        program = make_program("hdr.h.setInvalid();")
        semantics = symbolic_outputs(program)
        assert eval_output(semantics, "h.$valid", {"h.$valid": True}) is False
        assert eval_output(semantics, "h.a", {"h.a": 55, "h.$valid": True}) == 0

    def test_write_to_invalid_header_is_noop(self):
        program = make_program("hdr.h.setInvalid(); hdr.h.a = 8w5; hdr.h.setValid();")
        semantics = symbolic_outputs(program)
        assert eval_output(semantics, "h.a", {"h.a": 7, "h.$valid": True}) == 7

    def test_read_of_invalid_header_is_undefined_symbol(self):
        program = make_program("hdr.h.setInvalid(); hdr.eth.a = hdr.h.a;")
        semantics = symbolic_outputs(program)
        term = semantics.outputs["eth.a"]
        names = {symbol.name for symbol in term.symbols()}
        assert "undef_h.a" in names

    def test_is_valid_condition(self):
        program = make_program(
            "if (hdr.h.isValid()) { hdr.eth.a = 8w1; } else { hdr.eth.a = 8w2; }"
        )
        semantics = symbolic_outputs(program)
        env_valid = {"h.$valid": True, "eth.$valid": True}
        env_invalid = {"h.$valid": False, "eth.$valid": True}
        assert eval_output(semantics, "eth.a", env_valid) == 1
        assert eval_output(semantics, "eth.a", env_invalid) == 2


class TestCallsAndCopyInOut:
    def test_function_copy_out(self):
        extra = """
bit<8> bump(inout bit<8> x) {
    x = x + 8w1;
    return x;
}
"""
        program = make_program("hdr.h.b = bump(hdr.h.a);", extra=extra)
        semantics = symbolic_outputs(program)
        env = {"h.a": 4, "h.$valid": True}
        assert eval_output(semantics, "h.a", env) == 5
        assert eval_output(semantics, "h.b", env) == 5

    def test_action_exit_respects_copy_out(self):
        locals_ = """
    action set_val(inout bit<8> val) {
        val = 8w3;
        exit;
    }
"""
        program = make_program("set_val(hdr.h.a); hdr.h.b = 8w9;", locals_=locals_)
        semantics = symbolic_outputs(program)
        env = {"h.a": 0, "h.b": 0, "h.$valid": True}
        assert eval_output(semantics, "h.a", env) == 3
        assert eval_output(semantics, "h.b", env) == 0  # exit stops the control


class TestTables:
    LOCALS = """
    action set_b(bit<8> val) {
        hdr.h.b = val;
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { set_b(); NoAction(); }
        default_action = NoAction();
    }
"""

    def test_table_metadata_recorded(self):
        program = make_program("t.apply();", locals_=self.LOCALS)
        semantics = symbolic_outputs(program)
        assert len(semantics.tables) == 1
        info = semantics.tables[0]
        assert info.table == "t"
        assert info.actions == ["set_b", "NoAction"]
        assert info.key_symbols == ["t_key_0"]
        assert info.action_args["set_b"][0][0] == "t_set_b_val"

    def test_table_hit_executes_selected_action(self):
        program = make_program("t.apply();", locals_=self.LOCALS)
        semantics = symbolic_outputs(program)
        env = {
            "h.a": 7,
            "h.b": 0,
            "h.$valid": True,
            "t_key_0": 7,
            "t_action": 1,
            "t_set_b_val": 42,
        }
        assert eval_output(semantics, "h.b", env) == 42

    def test_table_miss_runs_default(self):
        program = make_program("t.apply();", locals_=self.LOCALS)
        semantics = symbolic_outputs(program)
        env = {
            "h.a": 7,
            "h.b": 5,
            "h.$valid": True,
            "t_key_0": 9,
            "t_action": 1,
            "t_set_b_val": 42,
        }
        assert eval_output(semantics, "h.b", env) == 5

    def test_figure3_functional_form(self):
        """The exact program of figure 3a yields figure 3b's semantics."""

        source = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}
struct Headers {
    Hdr_t h;
}
control ingress(inout Headers hdr) {
    action assign() { hdr.h.a = 8w1; }
    table t {
        key = { hdr.h.a : exact; }
        actions = { assign(); NoAction(); }
        default_action = NoAction();
    }
    apply {
        t.apply();
    }
}
"""
        program = parse_program(source)
        semantics = symbolic_outputs(program)
        # Key matches and action 1 selected -> hdr.a becomes 1.
        env_hit = {"h.a": 9, "h.$valid": True, "t_key_0": 9, "t_action": 1}
        assert eval_output(semantics, "h.a", env_hit) == 1
        # Key matches but the "NoAction" index is selected -> unchanged.
        env_noaction = {"h.a": 9, "h.$valid": True, "t_key_0": 9, "t_action": 2}
        assert eval_output(semantics, "h.a", env_noaction) == 9
        # Key does not match -> default (NoAction) -> unchanged.
        env_miss = {"h.a": 9, "h.$valid": True, "t_key_0": 5, "t_action": 1}
        assert eval_output(semantics, "h.a", env_miss) == 9


class TestAgreementWithConcreteInterpreter:
    PROGRAM_BODY = (
        "bit<8> tmp = hdr.h.a + 8w3; "
        "if (tmp > hdr.h.b) { hdr.h.a = tmp ^ hdr.h.b; } else { hdr.h.a = tmp & hdr.h.b; } "
        "hdr.eth.b = (bit<8>) (hdr.h.a ++ hdr.h.b)[11:4]; "
        "hdr.eth.a = (hdr.h.a == 8w0) ? 8w1 : hdr.h.a;"
    )

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
    )
    def test_symbolic_matches_concrete(self, a, b):
        program = make_program(self.PROGRAM_BODY)
        semantics = symbolic_outputs(program)
        packet = build_packet_state(program, "Headers", {"h.a": a, "h.b": b})
        concrete = ConcreteInterpreter(program).run(packet)
        assignment = {"h.a": a, "h.b": b, "h.$valid": True, "eth.$valid": True}
        for path in ("h.a", "h.b", "eth.a", "eth.b"):
            assert eval_output(semantics, path, assignment) == concrete.read(path), path

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=255),
        key=st.integers(min_value=0, max_value=255),
        arg=st.integers(min_value=0, max_value=255),
    )
    def test_table_semantics_match_concrete(self, a, key, arg):
        program = make_program("t.apply();", locals_=TestTables.LOCALS)
        semantics = symbolic_outputs(program)
        packet = build_packet_state(program, "Headers", {"h.a": a})
        entries = [TableEntry("t", (key,), "set_b", (arg,))]
        concrete = ConcreteInterpreter(program).run(packet, entries)
        assignment = {
            "h.a": a,
            "h.b": 0,
            "h.$valid": True,
            "eth.$valid": True,
            "t_key_0": key,
            "t_action": 1,
            "t_set_b_val": arg,
        }
        assert eval_output(semantics, "h.b", assignment) == concrete.read("h.b")


#: Every changed snapshot of this corpus is interpreted block by block.
GOLDEN_SNAPSHOT_CORPUS = (GeneratorConfig(seed=31), 24)
#: Every program of this corpus is interpreted as a three-packet sequence.
GOLDEN_SEQUENCE_CORPUS = (GeneratorConfig(seed=32, p_register=0.9), 12)

#: sha256 over the s-expressions of every output and state output the two
#: corpora above interpret to, from cold term tables.  Recorded before sorts
#: compared by identity, before ``_merge`` started from the else branch and
#: before guard propagation shared one walk memo per guard: the terms the
#: interpreter builds must not move.
GOLDEN_SEMANTICS_DIGEST = "6769b5377d22c93de9ebe746a86196bb265f852c3b620e2fb23ca7707dc22842"


def _hash_semantics(digest, label, semantics):
    digest.update(f"{label}\n".encode())
    for path, term in semantics.outputs.items():
        digest.update(f"{path}={term.to_sexpr()}\n".encode())
    for path, term in semantics.state_outputs.items():
        digest.update(f"{path}:={term.to_sexpr()}\n".encode())


def golden_semantics_digest() -> str:
    reset_worker_state()
    digest = hashlib.sha256()
    config, programs = GOLDEN_SNAPSHOT_CORPUS
    generator = RandomProgramGenerator(config)
    for index in range(programs):
        result = P4Compiler(CompilerOptions()).compile(generator.generate_indexed(index))
        for snapshot in result.snapshots:
            if not snapshot.changed:
                continue
            semantics = SymbolicInterpreter(snapshot.program, snapshot.source).interpret()
            for block, block_semantics in semantics.items():
                _hash_semantics(digest, f"{index} {snapshot.pass_name} {block}", block_semantics)
    config, programs = GOLDEN_SEQUENCE_CORPUS
    generator = RandomProgramGenerator(config)
    for index in range(programs):
        packets = SymbolicInterpreter(generator.generate_indexed(index)).interpret_sequence(3)
        for number, packet in enumerate(packets):
            _hash_semantics(digest, f"{index} packet {number}", packet)
    return digest.hexdigest()


class TestGoldenSemantics:
    def test_interpreter_terms_are_pinned(self):
        assert golden_semantics_digest() == GOLDEN_SEMANTICS_DIGEST
