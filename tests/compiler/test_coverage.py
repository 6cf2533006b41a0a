"""Coverage instrumentation: exact per-pass bits, wire round-trip, merge laws.

The per-pass tests assert *exact* coverage dicts for crafted programs —
both that the expected rule cells fired with the expected counts and,
through dict equality, that nothing else did.  That precision is the
point: campaign coverage and the `make bench-coverage` gate are computed
from these cells, so a pass that silently starts (or stops) recording
would skew them without failing any behavioural test.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import (
    CompilerOptions,
    CoverageMap,
    compile_front_midend,
    merge_coverage_dicts,
    program_features,
)
from repro.compiler.coverage import (
    feature_cell,
    pass_cell,
    rule_cell,
)
from repro.p4 import parse_program


PRELUDE = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}

struct Headers {
    Hdr_t h;
}
"""

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
        hdr.hs.pop_front(1);
        hdr.h.a = hdr.hs[0].a;
    }
}
"""


def control_program(body: str, locals_: str = "") -> str:
    return (
        PRELUDE
        + "control ingress(inout Headers hdr) {\n"
        + locals_
        + "\n    apply {\n"
        + body
        + "\n    }\n}\n"
    )


def coverage_of(source: str, **options) -> CoverageMap:
    result = compile_front_midend(source, CompilerOptions(**options))
    assert result.succeeded, f"unexpected failure: {result.crash or result.error}"
    return result.coverage


class TestPerPassCoverage:
    """Each midend pass records exactly its own cells — no more, no less."""

    def test_untouched_program_records_nothing(self):
        coverage = coverage_of(control_program("hdr.h.a = hdr.h.b;"))
        assert coverage.cells == {}
        assert not coverage

    def test_constant_folding_binop(self):
        coverage = coverage_of(control_program("hdr.h.a = (8w2 + 8w3);"))
        assert coverage.cells == {
            rule_cell("ConstantFolding", "fold_binop"): 1,
            pass_cell("ConstantFolding"): 1,
        }

    def test_strength_reduction_mul_to_shift(self):
        coverage = coverage_of(control_program("hdr.h.a = (hdr.h.b * 8w4);"))
        assert coverage.cells == {
            rule_cell("StrengthReduction", "mul_to_shift"): 1,
            pass_cell("StrengthReduction"): 1,
        }
        # the fired bit belongs to StrengthReduction alone
        assert pass_cell("ConstantFolding") not in coverage.cells
        assert pass_cell("Predication") not in coverage.cells

    def test_predication_rules(self):
        action = """
    action do_thing() {
        if (hdr.h.a == 8w1) {
            hdr.h.b = 8w2;
        }
    }
"""
        coverage = coverage_of(control_program("do_thing();", locals_=action))
        assert coverage.cells == {
            rule_cell("Predication", "predicate_if"): 1,
            rule_cell("Predication", "predicated_assign"): 1,
            pass_cell("Predication"): 1,
        }

    def test_copy_propagation_learn_and_substitute(self):
        coverage = coverage_of(
            control_program("bit<8> t = 8w5;\nhdr.h.b = t;")
        )
        assert coverage.cells == {
            rule_cell("LocalCopyPropagation", "learn_fact"): 1,
            rule_cell("LocalCopyPropagation", "substitute_local"): 1,
            pass_cell("LocalCopyPropagation"): 1,
        }

    def test_dead_code_elimination_dead_tail(self):
        coverage = coverage_of(control_program("exit;\nhdr.h.a = 8w1;"))
        assert coverage.cells == {
            rule_cell("DeadCodeElimination", "dead_tail"): 1,
            pass_cell("DeadCodeElimination"): 1,
        }

    def test_empty_if_is_dropped_by_dce(self):
        coverage = coverage_of(
            control_program("if (hdr.h.a == hdr.h.b) { }")
        )
        assert coverage.cells == {
            rule_cell("DeadCodeElimination", "drop_empty_if"): 1,
            pass_cell("DeadCodeElimination"): 1,
        }

    def test_stateful_lowering_counts_each_rmw(self):
        coverage = coverage_of(
            control_program(
                "c.count(32w1);\nc.count(32w1);",
                locals_="\n        counter(4) c;\n",
            )
        )
        assert coverage.cells == {
            rule_cell("StatefulLowering", "counter_to_register"): 1,
            rule_cell("StatefulLowering", "count_rmw"): 2,
            pass_cell("StatefulLowering"): 1,
        }

    def test_header_stack_flattening_rules(self):
        coverage = coverage_of(STACK_PROGRAM)
        assert coverage.cells == {
            rule_cell("HeaderStackFlattening", "extract_next"): 1,
            rule_cell("HeaderStackFlattening", "last_field"): 1,
            rule_cell("HeaderStackFlattening", "push_front"): 1,
            rule_cell("HeaderStackFlattening", "pop_front"): 1,
            pass_cell("HeaderStackFlattening"): 1,
        }


class TestProgramFeatures:
    def test_stack_program_features(self):
        features = program_features(parse_program(STACK_PROGRAM))
        assert sorted(features.cells) == [
            feature_cell("constants"),
            feature_cell("header_stack"),
            feature_cell("parser"),
            feature_cell("parser_cycle"),
            feature_cell("pop_front"),
            feature_cell("push_front"),
            feature_cell("widthless_literal"),
        ]

    def test_plain_program_has_no_structural_features(self):
        features = program_features(
            parse_program(control_program("hdr.h.a = hdr.h.b;"))
        )
        assert feature_cell("header_stack") not in features.cells
        assert feature_cell("parser") not in features.cells
        assert feature_cell("table") not in features.cells
        assert feature_cell("register") not in features.cells


# -- wire format and merge algebra --------------------------------------------

cell_names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters=":._-"),
    min_size=1,
    max_size=24,
)
coverage_dicts = st.dictionaries(
    cell_names, st.integers(min_value=1, max_value=2**31), max_size=8
)


class TestWireFormat:
    @settings(max_examples=100, deadline=None)
    @given(cells=coverage_dicts)
    def test_round_trip_is_lossless(self, cells):
        original = CoverageMap(cells=dict(cells))
        assert CoverageMap.from_dict(original.to_dict()) == original

    @settings(max_examples=100, deadline=None)
    @given(cells=coverage_dicts)
    def test_to_dict_is_a_copy(self, cells):
        coverage = CoverageMap(cells=dict(cells))
        payload = coverage.to_dict()
        payload["injected"] = 1
        assert "injected" not in coverage.cells


class TestMergeAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(a=coverage_dicts, b=coverage_dicts)
    def test_merge_is_commutative(self, a, b):
        left = CoverageMap(cells=dict(a)).merge(CoverageMap(cells=dict(b)))
        right = CoverageMap(cells=dict(b)).merge(CoverageMap(cells=dict(a)))
        assert left == right

    @settings(max_examples=100, deadline=None)
    @given(a=coverage_dicts, b=coverage_dicts, c=coverage_dicts)
    def test_merge_is_associative(self, a, b, c):
        maps = [CoverageMap(cells=dict(d)) for d in (a, b, c)]
        left = maps[0].merge(maps[1]).merge(maps[2])
        right = maps[0].merge(maps[1].merge(maps[2]))
        assert left == right

    @settings(max_examples=100, deadline=None)
    @given(a=coverage_dicts, b=coverage_dicts)
    def test_merge_matches_dict_fold(self, a, b):
        merged = CoverageMap(cells=dict(a)).merge(CoverageMap(cells=dict(b)))
        assert merged.cells == merge_coverage_dicts([a, b])

    @settings(max_examples=100, deadline=None)
    @given(a=coverage_dicts, b=coverage_dicts)
    def test_update_folds_in_place_like_merge(self, a, b):
        coverage = CoverageMap(cells=dict(a))
        coverage.update(b)
        assert coverage == CoverageMap(cells=dict(a)).merge(
            CoverageMap(cells=dict(b))
        )

    def test_merge_does_not_mutate_operands(self):
        a = CoverageMap(cells={"x": 1})
        b = CoverageMap(cells={"x": 2, "y": 3})
        merged = a.merge(b)
        assert merged.cells == {"x": 3, "y": 3}
        assert a.cells == {"x": 1}
        assert b.cells == {"x": 2, "y": 3}
