"""AST walks and the facts the compiler's skips rest on.

``ast.walk`` runs on an explicit stack and must yield exactly the node
sequence of the recursive pre-order walk it replaced; ``walk_statements``
is the same walk without entering expressions.  Both the statement-only
walks and the transformers that return expressions untouched rely on one
property of the AST: every node reachable from an expression is an
expression.  The corpora cover the default generator and its idiom-,
stack- and register-heavy configurations.
"""

import pytest

from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.p4 import ast, emit_program, parse_program

CONFIGS = {
    "default": GeneratorConfig(seed=41),
    "idiom": GeneratorConfig(seed=41, p_local_arg_idiom=1.0),
    "stack": GeneratorConfig(seed=41, p_header_stack=0.9),
    "register": GeneratorConfig(seed=41, p_register=0.9),
}

PROGRAMS_PER_CONFIG = 25


def corpus(config_name):
    generator = RandomProgramGenerator(CONFIGS[config_name])
    return [generator.generate_indexed(index) for index in range(PROGRAMS_PER_CONFIG)]


def recursive_walk(node, into_expressions=True):
    """The recursive reference: pre-order over ``vars(node)`` in field order,
    through lists, tuples and tuples inside lists."""

    yield node
    for value in vars(node).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        for item in items:
            subs = item if isinstance(item, tuple) else [item]
            for sub in subs:
                if not isinstance(sub, ast.Node):
                    continue
                if not into_expressions and isinstance(sub, ast.Expression):
                    continue
                yield from recursive_walk(sub, into_expressions)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_walk_yields_the_recursive_sequence(config_name):
    for program in corpus(config_name):
        expected = list(recursive_walk(program))
        walked = list(ast.walk(program))
        assert len(walked) == len(expected)
        assert all(left is right for left, right in zip(walked, expected))


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_walk_statements_skips_exactly_the_expressions(config_name):
    for program in corpus(config_name):
        expected = list(recursive_walk(program, into_expressions=False))
        walked = list(ast.walk_statements(program))
        assert all(left is right for left, right in zip(walked, expected))
        assert len(walked) == len(expected)
        assert not any(isinstance(node, ast.Expression) for node in walked)
        # Same nodes as the full walk without its expressions, same order.
        full = [node for node in ast.walk(program) if not isinstance(node, ast.Expression)]
        assert len(full) == len(walked)
        assert all(left is right for left, right in zip(walked, full))


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_expressions_hold_only_expressions(config_name):
    seen = set()
    for program in corpus(config_name):
        for node in ast.walk(program):
            if not isinstance(node, ast.Expression):
                continue
            for sub in ast.walk(node):
                assert isinstance(sub, ast.Expression), (type(node), type(sub))
                seen.add(type(sub))
    # The corpus reaches the compound expression classes, not just leaves.
    assert {ast.BinaryOp, ast.Member, ast.MethodCallExpression} <= seen


def test_a_walk_started_at_an_expression_yields_it():
    expr = parse_program(
        "header H { bit<8> a; }\nstruct S { H h; }\n"
        "control c(inout S s) { apply { s.h.a = s.h.a + 8w1; } }\n"
    ).controls()[0].apply.statements[0].rhs
    assert list(ast.walk_statements(expr)) == [expr]
    assert [type(node) for node in ast.walk(expr)] == [
        ast.BinaryOp, ast.Member, ast.Member, ast.PathExpression, ast.Constant
    ]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_a_shared_emit_memo_changes_no_text(config_name):
    """One memo across many programs, as one compilation shares it across
    its snapshots: every text equals a memo-free emit, and each entry holds
    the node its id names."""

    memo = {}
    programs = corpus(config_name)
    for program in programs + programs:
        assert emit_program(program, memo) == emit_program(program)
    assert memo
    assert all(key[0] == id(node) for key, (node, _) in memo.items())
