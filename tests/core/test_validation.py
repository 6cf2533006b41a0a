"""Tests for translation validation (figure 2 workflow)."""

import pytest

from repro import smt
from repro.compiler import CompilerOptions, compile_front_midend
from repro.compiler.pass_manager import PassManager
from repro.compiler.passes import CompilerPass
from repro.core.interpreter import BlockSemantics
from repro.core.validation import TranslationValidator, ValidationOutcome
from repro.p4 import parse_program


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


def validate(source: str, *bugs: str):
    result = compile_front_midend(source, CompilerOptions(enabled_bugs=set(bugs)))
    return TranslationValidator().validate_compilation(result)


COMPLEX_BODY = (
    "bit<8> tmp = hdr.h.a * 8w4; "
    "if (hdr.h.b == 8w0) { hdr.h.b = tmp - 8w2; } else { hdr.h.a = 8w1 - 8w2; } "
    "hdr.eth.a = (hdr.h.a == 8w3) ? 8w7 : hdr.h.b;"
)


class TestCorrectCompilerIsValidated:
    @pytest.mark.parametrize(
        "body",
        [
            "hdr.h.a = 8w1;",
            COMPLEX_BODY,
            "hdr.h.setInvalid(); hdr.h.a = 8w1; hdr.eth.a = hdr.h.a;",
            "if (hdr.h.a == 8w1) { } else { hdr.h.b = 8w9; }",
            "exit; hdr.h.a = 8w3;",
        ],
    )
    def test_no_divergence_on_correct_pipeline(self, body):
        report = validate(control_program(body))
        assert report.outcome == ValidationOutcome.EQUIVALENT, report.detail

    def test_functions_validate_after_inlining(self):
        extra = """
bit<8> bump(inout bit<8> x) {
    x = x + 8w1;
    return x;
}
"""
        report = validate(control_program("hdr.h.b = bump(hdr.h.a) + 8w3;", extra=extra))
        assert report.outcome == ValidationOutcome.EQUIVALENT

    def test_actions_and_tables_validate(self):
        locals_ = """
    action cond_set() {
        if (hdr.h.a == 8w1) {
            hdr.h.b = 8w2;
        } else {
            hdr.h.b = 8w3;
        }
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { cond_set(); NoAction(); }
        default_action = NoAction();
    }
"""
        report = validate(control_program("t.apply();", locals_=locals_))
        assert report.outcome == ValidationOutcome.EQUIVALENT

    def test_exit_in_action_validates(self):
        locals_ = """
    action set_val(inout bit<8> val) {
        val = 8w3;
        exit;
    }
"""
        report = validate(control_program("set_val(hdr.h.a); hdr.h.b = 8w9;", locals_=locals_))
        assert report.outcome == ValidationOutcome.EQUIVALENT


class TestSemanticBugsAreDetected:
    def test_constant_folding_bug_found_and_pinpointed(self):
        report = validate(control_program("hdr.h.a = 8w1 - 8w2;"), "constant_folding_no_mask")
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG
        assert report.divergences[0].pass_name == "ConstantFolding"

    def test_strength_reduction_bug_found(self):
        report = validate(
            control_program("hdr.h.a = hdr.h.b * 8w4;"),
            "strength_reduction_shift_semantics",
        )
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG
        assert report.divergences[0].pass_name == "StrengthReduction"

    def test_witness_is_produced(self):
        report = validate(
            control_program("hdr.h.a = hdr.h.b * 8w4;"),
            "strength_reduction_shift_semantics",
        )
        divergence = report.divergences[0]
        assert divergence.output_path == "h.a"
        assert divergence.witness  # non-empty assignment

    def test_exit_copy_out_bug_found(self):
        locals_ = """
    action set_val(inout bit<8> val) {
        val = 8w3;
        exit;
    }
"""
        report = validate(
            control_program("set_val(hdr.h.a); hdr.h.b = 8w9;", locals_=locals_),
            "exit_ignores_copy_out",
        )
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG
        assert report.divergences[0].pass_name == "RemoveActionParameters"

    def test_slice_drop_bug_found(self):
        locals_ = """
    action adjust(inout bit<7> val) {
        hdr.h.a[0:0] = 1w0;
        val = 7w1;
    }
"""
        report = validate(
            control_program("adjust(hdr.h.a[7:1]);", locals_=locals_),
            "action_param_slice_drop",
        )
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG

    def test_copy_prop_across_invalid_found(self):
        report = validate(
            control_program("hdr.h.setInvalid(); hdr.h.a = 8w1; hdr.eth.a = hdr.h.a;"),
            "copy_prop_across_invalid",
        )
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG
        assert report.divergences[0].pass_name == "LocalCopyPropagation"

    def test_dead_code_validity_bug_found(self):
        report = validate(
            control_program("if (hdr.h.a == 8w1) { hdr.h.setInvalid(); hdr.h.b = 8w2; }"),
            "dead_code_removes_validity_call",
        )
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG

    def test_simplify_control_flow_bug_found(self):
        report = validate(
            control_program("if (hdr.h.a == 8w1) { } else { hdr.h.b = 8w9; }"),
            "simplify_control_flow_empty_if",
        )
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG
        assert report.divergences[0].pass_name == "SimplifyControlFlow"

    def test_predication_nested_else_bug_found(self):
        locals_ = """
    action nest() {
        if (hdr.h.a == 8w1) {
            if (hdr.h.b == 8w2) {
                hdr.h.b = 8w3;
            } else {
                hdr.h.b = 8w4;
            }
        }
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { nest(); NoAction(); }
        default_action = NoAction();
    }
"""
        report = validate(
            control_program("t.apply();", locals_=locals_),
            "predication_nested_else_lost",
        )
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG
        assert report.divergences[0].pass_name == "Predication"

    def test_alias_copy_out_bug_found(self):
        extra = """
void shuffle(inout bit<8> x, inout bit<8> y) {
    x = x + 8w1;
    y = y + 8w2;
}
"""
        report = validate(
            control_program("shuffle(hdr.h.a, hdr.h.a);", extra=extra),
            "side_effect_argument_order",
        )
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG


class TestOtherOutcomes:
    def test_crash_reported_as_crash(self):
        report = validate(
            control_program("hdr.h.a = hdr.h.b << 8w9;"),
            "strength_reduction_negative_slice",
        )
        assert report.outcome == ValidationOutcome.CRASH

    def test_rejected_program_reported(self):
        report = validate(control_program("hdr.h.a = 16w1;"))
        assert report.outcome == ValidationOutcome.REJECTED

    def test_invalid_transformation_detected(self):
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
        report = validate(
            control_program("t.apply();", locals_=locals_), "midend_emit_missing_parens"
        )
        assert report.outcome == ValidationOutcome.INVALID_TRANSFORMATION
        assert report.invalid_pass == "Predication"


class EmitSource(CompilerPass):
    """A hand-written pass that replaces the program with ``source``."""

    location = "mid_end"

    def __init__(self, name: str, source: str) -> None:
        self.name = name
        self.source = source

    def run(self, program, context):
        return parse_program(self.source)


class TestIllTypedSnapshots:
    """A snapshot that parses but does not typecheck is an invalid
    transformation of the pass that emitted it, not an oracle error."""

    WELL_TYPED = control_program("hdr.h.a = 8w1;")
    #: Parses, but assigns a 16-bit constant to an 8-bit field.
    ILL_TYPED = control_program("hdr.h.a = 16w1;")

    def validate_passes(self, *passes):
        options = CompilerOptions()
        result = PassManager(list(passes), options).run(parse_program(self.WELL_TYPED))
        return TranslationValidator().validate_compilation(result)

    def test_ill_typed_snapshot_names_its_pass(self):
        report = self.validate_passes(
            EmitSource("Harmless", control_program("hdr.h.a = 8w0 + 8w1;")),
            EmitSource("IllTyped", self.ILL_TYPED),
        )
        assert report.outcome == ValidationOutcome.INVALID_TRANSFORMATION
        assert report.invalid_pass == "IllTyped"
        assert report.detail.startswith("emitted program does not typecheck: ")
        assert "width mismatch" in report.detail

    def test_first_failing_snapshot_in_pass_order_wins(self):
        report = self.validate_passes(
            EmitSource("First", self.ILL_TYPED),
            EmitSource("Second", control_program("hdr.h.b = 16w1;")),
        )
        assert report.outcome == ValidationOutcome.INVALID_TRANSFORMATION
        assert report.invalid_pass == "First"


X = smt.BitVecSym("x", 8)
Y = smt.BitVecSym("y", 8)


def block(name, outputs, state_outputs=None):
    return BlockSemantics(name, outputs, {}, [], [], state_outputs=state_outputs or {})


class TestDroppedOutputs:
    """An output the earlier snapshot had and the pass's snapshot lacks is
    that pass's divergence, with an empty witness, at its place in block
    and path order."""

    def validate(self, monkeypatch, before, after):
        semantics = {"Dropper": after}
        monkeypatch.setattr(
            TranslationValidator,
            "_interpret",
            staticmethod(lambda snapshot: semantics.get(snapshot.pass_name, before)),
        )
        result = PassManager(
            [EmitSource("Dropper", control_program("hdr.h.a = 8w2;"))], CompilerOptions()
        ).run(parse_program(control_program("hdr.h.a = 8w1;")))
        return TranslationValidator().validate_compilation(result)

    @pytest.mark.parametrize(
        "after, block_name, path",
        [
            ({"ingress": block("ingress", {"h.a": X})}, "ingress", "h.b"),
            ({"ingress": block("ingress", {"h.a": X, "h.b": Y})}, "egress", "$state.r[0]"),
            ({}, "ingress", "h.a"),
        ],
    )
    def test_a_dropped_output_is_the_passs_divergence(
        self, monkeypatch, after, block_name, path
    ):
        before = {
            "ingress": block("ingress", {"h.a": X, "h.b": Y}),
            "egress": block("egress", {}, {"$state.r[0]": X}),
        }
        report = self.validate(monkeypatch, before, after)
        assert report.outcome == ValidationOutcome.SEMANTIC_BUG
        (divergence,) = report.divergences
        assert (divergence.pass_name, divergence.block, divergence.output_path) == (
            "Dropper",
            block_name,
            path,
        )
        assert divergence.witness == {}

    def test_an_earlier_difference_comes_first(self, monkeypatch):
        before = {"ingress": block("ingress", {"h.a": X, "h.b": Y})}
        after = {"ingress": block("ingress", {"h.a": smt.Add(X, smt.BitVecVal(1, 8))})}
        report = self.validate(monkeypatch, before, after)
        (divergence,) = report.divergences
        assert divergence.output_path == "h.a"
        assert divergence.witness != {}

    def test_a_new_output_is_not_compared(self, monkeypatch):
        before = {"ingress": block("ingress", {"h.a": X})}
        after = {"ingress": block("ingress", {"h.a": X, "h.b": Y}), "egress": block("egress", {})}
        report = self.validate(monkeypatch, before, after)
        assert report.outcome == ValidationOutcome.EQUIVALENT
