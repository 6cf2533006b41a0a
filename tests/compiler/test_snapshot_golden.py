"""The front/mid-end output, pinned over a large corpus.

A golden digest of every compilation of 240 generated programs (60 each
from the default, idiom-, stack- and register-heavy generator configs)
under no defect, under the triage benchmark's eight defects and under
every catalog defect at once: each snapshot's pass name, changed flag and
source, the crash or rejection, and the coverage cells.  It was recorded
before the transformers skipped expressions, the statement scans stopped
entering them and the pass manager reused statement texts across
snapshots, so none of those may move a byte.

The transformer tests pin the dispatch contract those skips rest on: a
transformer returns a node untouched when no node class reachable from it
has a ``visit_`` method on the transformer.
"""

import hashlib

import pytest

from repro.compiler import CompilerOptions, P4Compiler
from repro.compiler.bugs import BUG_CATALOG
from repro.compiler.visitor import Transformer
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.p4 import ast, parse_program

CONFIGS = (
    GeneratorConfig(seed=29),
    GeneratorConfig(seed=29, p_local_arg_idiom=1.0),
    GeneratorConfig(seed=29, p_header_stack=0.9),
    GeneratorConfig(seed=29, p_register=0.9),
)

PROGRAMS_PER_CONFIG = 60

#: The eight defects of the seeded-triage benchmark workload.
REDUCE_BUGS = (
    "strength_reduction_negative_slice",
    "typecheck_shift_width_crash",
    "exit_ignores_copy_out",
    "constant_folding_no_mask",
    "simplify_control_flow_empty_if",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
    "tofino_exit_in_action_crash",
)

DEFECT_SETS = ((), REDUCE_BUGS, tuple(sorted(BUG_CATALOG)))

GOLDEN_DIGEST = "5796d592361454aac30600552c24a011061d88d5f3ee1b2d6a6600d278a23d88"


def test_every_snapshot_of_the_corpus_is_pinned():
    programs = []
    for config in CONFIGS:
        generator = RandomProgramGenerator(config)
        programs.extend(generator.generate_indexed(i) for i in range(PROGRAMS_PER_CONFIG))
    digest = hashlib.sha256()
    for bugs in DEFECT_SETS:
        options = CompilerOptions(enabled_bugs=frozenset(bugs))
        for program in programs:
            result = P4Compiler(options).compile(program)
            for snapshot in result.snapshots:
                digest.update(
                    repr((snapshot.pass_name, snapshot.changed, snapshot.source)).encode()
                )
            crash = result.crash
            digest.update(
                repr((crash.pass_name, crash.signature, str(crash)) if crash else None).encode()
            )
            digest.update(repr(str(result.error) if result.error else None).encode())
            digest.update(repr(sorted(result.coverage.to_dict().items())).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


SOURCE = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    apply {
        hdr.h.a = (hdr.h.b + 8w1) * 8w2;
        if (hdr.h.a == 8w3) { hdr.h.b = hdr.h.a; exit; }
    }
}
"""


class _ExitDropper(Transformer):
    visited = []

    def visit_ExitStatement(self, stmt):
        return None

    def generic_visit(self, node):
        self.visited.append(type(node))
        return super().generic_visit(node)


class _PathRenamer(Transformer):
    def visit_PathExpression(self, node):
        return ast.PathExpression(node.name.upper())


TABLE_SOURCE = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    action set(bit<8> v) {
        hdr.h.b = v;
    }
    table t {
        key = {
            hdr.h.a : exact;
        }
        actions = {
            set();
            NoAction();
        }
        default_action = set(8w7);
    }
    apply {
        t.apply();
        if (hdr.h.a == 8w3) { exit; }
    }
}
"""


class TestDispatch:
    def test_a_statement_transformer_never_enters_an_expression(self):
        program = parse_program(SOURCE)
        _ExitDropper.visited.clear()
        out = _ExitDropper().transform_program(program)
        assert not any(issubclass(cls, ast.Expression) for cls in _ExitDropper.visited)
        # Handed an expression, it returns it without walking it.
        rhs = program.controls()[0].apply.statements[0].rhs
        assert _ExitDropper().transform(rhs) is rhs
        assert not any(issubclass(cls, ast.Expression) for cls in _ExitDropper.visited)
        before = program.controls()[0].apply.statements
        after = out.controls()[0].apply.statements
        # The assignment is shared; the if lost its exit but kept its condition.
        assert after[0] is before[0]
        assert after[1] is not before[1]
        assert after[1].cond is before[1].cond
        assert len(after[1].then_branch.statements) == 1

    def test_an_expression_transformer_reaches_nested_expressions(self):
        program = parse_program(SOURCE)
        rhs = program.controls()[0].apply.statements[0].rhs
        renamed = _PathRenamer().transform(rhs)
        assert renamed is not rhs
        assert {node.name for node in ast.walk(renamed) if isinstance(node, ast.PathExpression)} == {
            "HDR"
        }
        out = _PathRenamer().transform_program(program)
        names = {node.name for node in ast.walk(out) if isinstance(node, ast.PathExpression)}
        assert names == {"HDR"}

    def test_a_statement_transformer_never_enters_a_table_action_ref_key_or_parameter(self):
        program = parse_program(TABLE_SOURCE)
        _ExitDropper.visited.clear()
        out = _ExitDropper().transform_program(program)
        skipped = (ast.TableDeclaration, ast.ActionRef, ast.KeyElement, ast.Parameter)
        assert not any(issubclass(cls, skipped) for cls in _ExitDropper.visited)
        # It still reaches the exit inside the apply block, and shares the table.
        control, new_control = program.controls()[0], out.controls()[0]
        assert new_control is not control
        assert new_control.apply.statements[1].then_branch.statements == []
        assert new_control.locals[1] is control.locals[1]

    def test_a_path_transformer_rewrites_a_path_inside_a_table_key(self):
        program = parse_program(TABLE_SOURCE)
        out = _PathRenamer().transform_program(program)
        table = out.controls()[0].locals[1]
        assert isinstance(table, ast.TableDeclaration)
        key_paths = {
            node.name for node in ast.walk(table.keys[0]) if isinstance(node, ast.PathExpression)
        }
        assert key_paths == {"HDR"}
        assert program.controls()[0].locals[1].keys[0].expr.expr.expr.name == "hdr"

    def test_each_class_fills_its_own_table(self):
        program = parse_program(SOURCE)
        _ExitDropper().transform_program(program)
        _PathRenamer().transform_program(program)
        assert _ExitDropper._dispatch is not _PathRenamer._dispatch
        assert _ExitDropper._dispatch[ast.ExitStatement] is _ExitDropper.visit_ExitStatement
        assert _ExitDropper._dispatch[ast.BinaryOp] is not _ExitDropper.generic_visit
        assert _PathRenamer._dispatch[ast.BinaryOp] is _PathRenamer.generic_visit

    @pytest.mark.parametrize("cls", (_ExitDropper, _PathRenamer))
    def test_a_transformer_that_changes_nothing_returns_its_input(self, cls):
        program = parse_program("header H { bit<8> a; }\nstruct S { H h; }\n")
        assert cls().transform_program(program) is program
