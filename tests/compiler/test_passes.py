"""Unit tests for individual compiler passes (correct behaviour)."""

import pytest

from repro.compiler import CompilerOptions, compile_front_midend
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.p4 import ast, emit_program, parse_program


PRELUDE = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}

struct Headers {
    Hdr_t h;
}
"""


def control_program(body: str, locals_: str = "", extra: str = "") -> str:
    return (
        PRELUDE
        + extra
        + "control ingress(inout Headers hdr) {\n"
        + locals_
        + "\n    apply {\n"
        + body
        + "\n    }\n}\n"
    )


def compile_ok(source: str, **options):
    result = compile_front_midend(source, CompilerOptions(**options))
    assert result.succeeded, f"unexpected failure: {result.crash or result.error}"
    return result


class TestPipelineBasics:
    def test_correct_compiler_accepts_simple_program(self):
        result = compile_ok(control_program("hdr.h.a = 8w1;"))
        assert result.snapshots[0].pass_name == "input"
        assert result.final_program is not None

    def test_snapshots_cover_every_pass(self):
        result = compile_ok(control_program("hdr.h.a = 8w1;"))
        names = [snapshot.pass_name for snapshot in result.snapshots]
        assert "TypeChecking" in names
        assert "ConstantFolding" in names
        assert "SimplifyControlFlow" in names

    def test_type_error_is_graceful_rejection(self):
        result = compile_front_midend(control_program("hdr.h.a = 16w1;"), CompilerOptions())
        assert result.rejected
        assert not result.crashed

    def test_every_snapshot_reparses(self):
        source = control_program(
            "hdr.h.a = 8w3 * 8w2; if (hdr.h.b == 8w0) { hdr.h.b = 8w1; }",
        )
        result = compile_ok(source)
        for snapshot in result.snapshots:
            parse_program(snapshot.source)

    def test_changed_snapshots_subset(self):
        result = compile_ok(control_program("hdr.h.a = 8w1;"))
        changed = result.changed_snapshots()
        assert changed[0].pass_name == "input"
        assert all(snapshot.changed for snapshot in changed)


class TestConstantFolding:
    def _final_assignment_rhs(self, source: str, **options):
        result = compile_ok(source, **options)
        control = result.final_program.controls()[0]
        assignments = [
            statement
            for statement in ast.walk(control)
            if isinstance(statement, ast.AssignmentStatement)
        ]
        return assignments[-1].rhs

    def test_folds_addition(self):
        rhs = self._final_assignment_rhs(control_program("hdr.h.a = 8w3 + 8w4;"))
        assert isinstance(rhs, ast.Constant)
        assert rhs.value == 7

    def test_folds_with_wraparound(self):
        rhs = self._final_assignment_rhs(control_program("hdr.h.a = 8w200 + 8w100;"))
        assert isinstance(rhs, ast.Constant)
        assert rhs.value == 44

    def test_folds_subtraction_underflow(self):
        rhs = self._final_assignment_rhs(control_program("hdr.h.a = 8w1 - 8w2;"))
        assert isinstance(rhs, ast.Constant)
        assert rhs.value == 255

    def test_folds_comparison_to_bool(self):
        source = control_program("if (8w1 == 8w1) { hdr.h.a = 8w5; }")
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        # The branch is constant-true, so dead-code elimination flattens it.
        assert not any(isinstance(node, ast.IfStatement) for node in ast.walk(control))

    def test_removes_constant_false_branch(self):
        source = control_program("if (8w1 == 8w2) { hdr.h.a = 8w5; }")
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        assignments = [
            node for node in ast.walk(control) if isinstance(node, ast.AssignmentStatement)
        ]
        assert assignments == []


class TestStrengthReduction:
    def test_multiplication_by_power_of_two_becomes_shift(self):
        source = control_program("hdr.h.a = hdr.h.b * 8w4;")
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        shifts = [
            node
            for node in ast.walk(control)
            if isinstance(node, ast.BinaryOp) and node.op == "<<"
        ]
        assert len(shifts) == 1
        assert shifts[0].right.value == 2

    def test_add_zero_removed(self):
        source = control_program("hdr.h.a = hdr.h.b + 8w0;")
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        assignment = [
            node for node in ast.walk(control) if isinstance(node, ast.AssignmentStatement)
        ][-1]
        assert isinstance(assignment.rhs, ast.Member)

    def test_oversized_shift_not_a_crash_when_bug_disabled(self):
        source = control_program("hdr.h.a = hdr.h.b << 8w9;")
        compile_ok(source)

    def test_zero_fold_takes_width_from_typed_operand(self):
        """Regression: ``slice * 0`` used to fold to a *width-less* zero.

        The width came from the zero literal alone, so a width-less zero
        next to a typed operand produced a constant downstream consumers
        re-infer as bit<32>, changing enclosing concatenation widths.
        """

        from repro.compiler.midend import _StrengthReducer

        reducer = _StrengthReducer(off_by_one=False, negative_slice=False)
        base = ast.Member(ast.Member(ast.PathExpression("hdr"), "h"), "a")
        folded = reducer.visit_BinaryOp(
            ast.BinaryOp("*", ast.Slice(base, 3, 0), ast.Constant(0))
        )
        assert isinstance(folded, ast.Constant)
        assert (folded.value, folded.width) == (0, 4)

        folded = reducer.visit_BinaryOp(
            ast.BinaryOp("&", ast.Constant(0), ast.Slice(base, 7, 2))
        )
        assert isinstance(folded, ast.Constant)
        assert (folded.value, folded.width) == (0, 6)

        # A typed zero keeps its own width.
        folded = reducer.visit_BinaryOp(
            ast.BinaryOp("&", ast.Slice(base, 3, 0), ast.Constant(0, 4))
        )
        assert (folded.value, folded.width) == (0, 4)

    def test_zero_fold_width_preserves_concat_semantics(self):
        """End to end: the fold must not change a concatenation's width."""

        from repro.core.validation import TranslationValidator, ValidationOutcome

        source = control_program(
            "hdr.h.b = (bit<8>) (hdr.h.a[3:0] ++ (hdr.h.a[3:0] & 0));"
        )
        result = compile_ok(source)
        report = TranslationValidator().validate_compilation(result)
        assert report.outcome == ValidationOutcome.EQUIVALENT, report.divergences
        assert "4w0" in result.snapshots[-1].source or "++" not in result.snapshots[-1].source

    def test_zero_fold_resolves_header_field_widths(self):
        """A width-less zero next to a *header field* must fold typed too.

        Field widths are not structurally visible, so the fold consults the
        declaration-derived name-width map; without it, ``hdr.h.a & 0``
        folded to a width-less zero that re-infers as bit<32> and changed
        the width of the enclosing concatenation (a false divergence).
        """

        from repro.core.validation import TranslationValidator, ValidationOutcome

        source = control_program(
            "bit<16> t = (bit<16>) (hdr.h.a[3:0] ++ (hdr.h.a & 0)); hdr.h.b = t[7:0];"
        )
        result = compile_ok(source)
        report = TranslationValidator().validate_compilation(result)
        assert report.outcome == ValidationOutcome.EQUIVALENT, report.divergences


class TestInlineFunctions:
    FUNCTION = """
bit<8> bump(inout bit<8> x) {
    x = x + 8w1;
    return x;
}
"""

    def test_function_calls_are_inlined(self):
        source = control_program("hdr.h.a = bump(hdr.h.b);", extra=self.FUNCTION)
        result = compile_ok(source)
        final = result.final_program
        assert final.functions() == []
        emitted = emit_program(final)
        assert "bump(" not in emitted

    def test_copy_out_updates_argument(self):
        source = control_program("hdr.h.a = bump(hdr.h.b);", extra=self.FUNCTION)
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        targets = [
            str(node.lhs)
            for node in ast.walk(control)
            if isinstance(node, ast.AssignmentStatement)
        ]
        assert any(target == "hdr.h.b" for target in targets)

    def test_nested_call_inlined(self):
        source = control_program("hdr.h.a = bump(hdr.h.b) + 8w1;", extra=self.FUNCTION)
        result = compile_ok(source)
        emitted = emit_program(result.final_program)
        assert "bump(" not in emitted

    def test_void_function_statement(self):
        extra = """
void clear(out bit<8> x) {
    x = 8w0;
}
"""
        source = control_program("clear(hdr.h.a);", extra=extra)
        result = compile_ok(source)
        emitted = emit_program(result.final_program)
        assert "clear(" not in emitted


class TestRemoveActionParameters:
    def test_direct_action_call_expanded(self):
        locals_ = """
    action set_val(inout bit<8> val) {
        val = 8w3;
    }
"""
        source = control_program("set_val(hdr.h.a);", locals_=locals_)
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        apply_calls = [
            node
            for node in ast.walk(control.apply)
            if isinstance(node, ast.MethodCallStatement)
        ]
        assert apply_calls == []
        assignments = [
            str(node.lhs)
            for node in ast.walk(control.apply)
            if isinstance(node, ast.AssignmentStatement)
        ]
        assert "hdr.h.a" in assignments

    def test_exit_still_copies_out(self):
        locals_ = """
    action set_val(inout bit<8> val) {
        val = 8w3;
        exit;
    }
"""
        source = control_program("set_val(hdr.h.a);", locals_=locals_)
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        statements = control.apply.statements
        exit_index = next(
            index
            for index, statement in enumerate(statements)
            if isinstance(statement, ast.ExitStatement)
        )
        copy_outs = [
            index
            for index, statement in enumerate(statements)
            if isinstance(statement, ast.AssignmentStatement)
            and str(statement.lhs) == "hdr.h.a"
        ]
        assert any(index < exit_index for index in copy_outs)


class TestPredication:
    def test_if_in_action_becomes_ternary(self):
        locals_ = """
    action cond_set() {
        if (hdr.h.a == 8w1) {
            hdr.h.b = 8w2;
        }
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { cond_set(); NoAction(); }
        default_action = NoAction();
    }
"""
        source = control_program("t.apply();", locals_=locals_)
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        action = next(
            local for local in control.locals if isinstance(local, ast.ActionDeclaration)
            and local.name == "cond_set"
        )
        assert not any(isinstance(node, ast.IfStatement) for node in ast.walk(action))
        assert any(isinstance(node, ast.Ternary) for node in ast.walk(action))

    def test_apply_block_ifs_left_alone(self):
        source = control_program("if (hdr.h.a == 8w1) { hdr.h.b = 8w2; }")
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        assert any(isinstance(node, ast.IfStatement) for node in ast.walk(control.apply))


class TestDeadCodeAndControlFlow:
    def test_statements_after_exit_removed(self):
        source = control_program("exit; hdr.h.a = 8w1;")
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        assignments = [
            node for node in ast.walk(control) if isinstance(node, ast.AssignmentStatement)
        ]
        assert assignments == []

    def test_empty_if_removed(self):
        source = control_program("if (hdr.h.a == 8w1) { }")
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        assert not any(isinstance(node, ast.IfStatement) for node in ast.walk(control))

    def test_constant_true_if_ending_in_exit_truncates_trailing_code(self):
        """Regression: a collapsed constant-``true`` if ending in ``exit``
        terminates the enclosing block, so trailing statements are dead and
        must not survive into the back ends."""

        source = control_program(
            "if (true) { hdr.h.a = 8w1; exit; } hdr.h.b = 8w2;"
        )
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        assignments = [
            node for node in ast.walk(control) if isinstance(node, ast.AssignmentStatement)
        ]
        assert len(assignments) == 1
        assert emit_program(result.final_program).count("hdr.h.b") == 0

    def test_constant_true_if_with_return_truncates_in_functions(self):
        source = (
            PRELUDE
            + """
void helper(inout bit<8> x) {
    if (true) {
        x = 8w1;
        return;
    }
    x = 8w2;
}

control ingress(inout Headers hdr) {
    apply {
        helper(hdr.h.a);
    }
}
"""
        )
        from repro.compiler.midend import DeadCodeElimination
        from repro.compiler.passes import PassContext

        program = parse_program(source)
        eliminated = DeadCodeElimination().run(
            program, PassContext(options=CompilerOptions())
        )
        function = eliminated.functions()[0]
        assignments = [
            node
            for node in ast.walk(function)
            if isinstance(node, ast.AssignmentStatement)
        ]
        assert len(assignments) == 1

    def test_empty_then_with_else_inverted(self):
        source = control_program("if (hdr.h.a == 8w1) { } else { hdr.h.b = 8w9; }")
        result = compile_ok(source)
        control = result.final_program.controls()[0]
        assignments = [
            node for node in ast.walk(control) if isinstance(node, ast.AssignmentStatement)
        ]
        assert len(assignments) == 1


class TestParserHandling:
    PARSER = """
parser prs(inout Headers hdr) {
    state start {
        transition select (hdr.h.a) {
            8w1 : middle;
            default : accept;
        }
    }
    state middle {
        hdr.h.b = 8w7;
        transition accept;
    }
}
"""

    def test_parser_program_compiles(self):
        source = PRELUDE + self.PARSER + """
control ingress(inout Headers hdr) {
    apply {
        hdr.h.a = 8w1;
    }
}
"""
        compile_ok(source)

    def test_unknown_transition_rejected(self):
        source = PRELUDE + """
parser prs(inout Headers hdr) {
    state start {
        transition nowhere;
    }
}
""" + """
control ingress(inout Headers hdr) {
    apply { }
}
"""
        result = compile_front_midend(source, CompilerOptions())
        assert result.rejected
