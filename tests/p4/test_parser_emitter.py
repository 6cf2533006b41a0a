"""Parser and emitter tests, including emit/reparse round trips."""

import pytest

from repro.compiler import compile_front_midend
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.p4 import BitType, ast, emit_program, parse_program
from repro.p4.lexer import LexerError
from repro.p4.parser import BINARY_PRECEDENCE, ParserError


SIMPLE_PROGRAM = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}

struct Headers {
    Hdr_t h;
}

control ingress(inout Headers hdr) {
    action assign() {
        hdr.h.a = 8w1;
    }
    table t {
        key = {
            hdr.h.a : exact;
        }
        actions = {
            assign();
            NoAction();
        }
        default_action = NoAction();
    }
    apply {
        t.apply();
    }
}
"""


PARSER_PROGRAM = """
header Hdr_t {
    bit<8> a;
}

struct Headers {
    Hdr_t h;
}

parser MyParser(inout Headers hdr) {
    state start {
        hdr.h.setValid();
        transition select (hdr.h.a) {
            8w1 : next;
            default : accept;
        }
    }
    state next {
        hdr.h.a = 8w2;
        transition accept;
    }
}
"""


class TestParsingDeclarations:
    def test_header_declaration(self):
        program = parse_program(SIMPLE_PROGRAM)
        headers = program.headers()
        assert len(headers) == 1
        assert headers[0].name == "Hdr_t"
        assert [name for name, _ in headers[0].fields] == ["a", "b"]

    def test_struct_declaration(self):
        program = parse_program(SIMPLE_PROGRAM)
        structs = program.structs()
        assert structs[0].name == "Headers"

    def test_control_structure(self):
        program = parse_program(SIMPLE_PROGRAM)
        control = program.controls()[0]
        assert control.name == "ingress"
        assert control.params[0].direction == "inout"
        action_names = [
            local.name for local in control.locals if isinstance(local, ast.ActionDeclaration)
        ]
        assert action_names == ["assign"]

    def test_table_properties(self):
        program = parse_program(SIMPLE_PROGRAM)
        control = program.controls()[0]
        table = next(l for l in control.locals if isinstance(l, ast.TableDeclaration))
        assert table.name == "t"
        assert len(table.keys) == 1
        assert table.keys[0].match_kind == "exact"
        assert [ref.name for ref in table.actions] == ["assign", "NoAction"]
        assert table.default_action.name == "NoAction"

    def test_apply_block(self):
        program = parse_program(SIMPLE_PROGRAM)
        control = program.controls()[0]
        assert len(control.apply.statements) == 1
        statement = control.apply.statements[0]
        assert isinstance(statement, ast.MethodCallStatement)

    def test_parser_states(self):
        program = parse_program(PARSER_PROGRAM)
        parser = program.parsers()[0]
        assert [state.name for state in parser.states] == ["start", "next"]
        start = parser.state("start")
        assert start.select_expr is not None
        assert len(start.cases) == 2
        assert start.cases[1].value is None  # default case
        assert parser.state("next").next_state == "accept"

    def test_function_declaration(self):
        source = """
        bit<8> double_it(inout bit<8> x) {
            x = x + x;
            return x;
        }
        """
        program = parse_program(source)
        function = program.functions()[0]
        assert function.name == "double_it"
        assert function.params[0].direction == "inout"


class TestParsingStatementsAndExpressions:
    def _statements(self, body: str):
        source = SIMPLE_PROGRAM.replace("t.apply();", body)
        program = parse_program(source)
        return program.controls()[0].apply.statements

    def test_if_else(self):
        statements = self._statements(
            "if (hdr.h.a == 8w1) { hdr.h.b = 8w2; } else { hdr.h.b = 8w3; }"
        )
        statement = statements[0]
        assert isinstance(statement, ast.IfStatement)
        assert statement.else_branch is not None

    def test_if_without_braces_normalised_to_block(self):
        statements = self._statements("if (hdr.h.a == 8w1) hdr.h.b = 8w2;")
        assert isinstance(statements[0].then_branch, ast.BlockStatement)

    def test_variable_declaration_with_initializer(self):
        statements = self._statements("bit<8> tmp = hdr.h.a + 8w1;")
        declaration = statements[0]
        assert isinstance(declaration, ast.VariableDeclaration)
        assert declaration.initializer is not None

    def test_slice_expression(self):
        statements = self._statements("hdr.h.a[3:0] = 4w5;")
        assignment = statements[0]
        assert isinstance(assignment.lhs, ast.Slice)
        assert assignment.lhs.high == 3
        assert assignment.lhs.low == 0

    def test_ternary_expression(self):
        statements = self._statements("hdr.h.a = (hdr.h.b == 8w0) ? 8w1 : 8w2;")
        assert isinstance(statements[0].rhs, ast.Ternary)

    def test_cast_expression(self):
        statements = self._statements("hdr.h.a = (bit<8>) hdr.h.b;")
        assert isinstance(statements[0].rhs, ast.Cast)

    def test_exit_statement(self):
        statements = self._statements("exit;")
        assert isinstance(statements[0], ast.ExitStatement)

    def test_operator_precedence(self):
        statements = self._statements("hdr.h.a = hdr.h.a + hdr.h.b * 8w2;")
        rhs = statements[0].rhs
        assert rhs.op == "+"
        assert rhs.right.op == "*"

    def test_concat_operator(self):
        statements = self._statements("hdr.h.a = (hdr.h.a[3:0] ++ hdr.h.b[3:0]);")
        assert statements[0].rhs.op == "++"

    def test_header_validity_calls(self):
        statements = self._statements("hdr.h.setInvalid(); hdr.h.setValid();")
        assert all(isinstance(statement, ast.MethodCallStatement) for statement in statements)


class TestParserErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParserError):
            parse_program("header H { bit<8> a }")

    def test_control_without_apply(self):
        with pytest.raises(ParserError):
            parse_program("control c(inout bit<8> x) { }")

    def test_assignment_to_non_lvalue(self):
        with pytest.raises(ParserError):
            parse_program(
                "control c(inout bit<8> x) { apply { 8w1 = x; } }"
            )

    def test_bare_expression_statement_rejected(self):
        with pytest.raises(ParserError):
            parse_program("control c(inout bit<8> x) { apply { x + 8w1; } }")

    def test_header_with_bool_field_rejected(self):
        with pytest.raises(ParserError):
            parse_program("header H { bool flag; }")


class TestRoundTrip:
    @pytest.mark.parametrize("source", [SIMPLE_PROGRAM, PARSER_PROGRAM])
    def test_emit_then_reparse_is_stable(self, source):
        first = parse_program(source)
        emitted = emit_program(first)
        second = parse_program(emitted)
        assert emit_program(second) == emitted

    def test_round_trip_preserves_structure(self):
        program = parse_program(SIMPLE_PROGRAM)
        reparsed = parse_program(emit_program(program))
        assert len(reparsed.declarations) == len(program.declarations)
        assert [type(d) for d in reparsed.declarations] == [
            type(d) for d in program.declarations
        ]

    def test_round_trip_complex_expressions(self):
        source = SIMPLE_PROGRAM.replace(
            "t.apply();",
            "hdr.h.a = ((hdr.h.b + 8w3) * 8w2) ^ (hdr.h.a >> 8w1); "
            "if (!(hdr.h.a == 8w0) && hdr.h.isValid()) { hdr.h.b = (bit<8>) hdr.h.a[7:4]; }",
        )
        program = parse_program(source)
        emitted = emit_program(program)
        assert emit_program(parse_program(emitted)) == emitted


#: The grammar's binary precedence levels, loosest first.
PRECEDENCE_LEVELS = [
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("|",),
    ("^",),
    ("&",),
    ("<<", ">>"),
    ("++",),
    ("+", "-"),
    ("*", "/", "%"),
]


def _rhs(expression: str) -> ast.Expression:
    source = f"control c(inout bit<8> x) {{ apply {{ x = {expression}; }} }}"
    return parse_program(source).controls()[0].apply.statements[0].rhs


def _path(name: str) -> ast.PathExpression:
    return ast.PathExpression(name)


class TestOperatorPrecedence:
    def test_table_pins_the_grammar_levels(self):
        assert BINARY_PRECEDENCE == {
            op: level for level, ops in enumerate(PRECEDENCE_LEVELS) for op in ops
        }

    def test_every_operator_pair_groups_as_the_table_dictates(self):
        p, q, r = _path("p"), _path("q"), _path("r")
        for first, first_level in BINARY_PRECEDENCE.items():
            for second, second_level in BINARY_PRECEDENCE.items():
                if second_level > first_level:
                    expected = ast.BinaryOp(first, p, ast.BinaryOp(second, q, r))
                else:
                    # A looser or equal second operator: the left pair groups first.
                    expected = ast.BinaryOp(second, ast.BinaryOp(first, p, q), r)
                assert _rhs(f"p {first} q {second} r") == expected, (first, second)

    @pytest.mark.parametrize("operators", PRECEDENCE_LEVELS)
    def test_chains_of_one_level_associate_left(self, operators):
        chain = [operators[index % len(operators)] for index in range(4)]
        expected = _path("p0")
        text = "p0"
        for index, operator in enumerate(chain, start=1):
            expected = ast.BinaryOp(operator, expected, _path(f"p{index}"))
            text += f" {operator} p{index}"
        assert _rhs(text) == expected

    def test_unary_and_cast_bind_tighter_than_any_binary_operator(self):
        assert _rhs("-p * q") == ast.BinaryOp("*", ast.UnaryOp("-", _path("p")), _path("q"))
        assert _rhs("(bit<8>) p + q") == ast.BinaryOp(
            "+", ast.Cast(BitType(8), _path("p")), _path("q")
        )

    def test_ternary_is_loosest_and_parentheses_regroup(self):
        assert _rhs("p || q ? r : p") == ast.Ternary(
            ast.BinaryOp("||", _path("p"), _path("q")), _path("r"), _path("p")
        )
        assert _rhs("p * (q + r)") == ast.BinaryOp(
            "*", _path("p"), ast.BinaryOp("+", _path("q"), _path("r"))
        )


class TestSnapshotReparse:
    def test_changed_snapshots_reparse_to_their_programs(self):
        generator = RandomProgramGenerator(GeneratorConfig(seed=0))
        checked = 0
        for index in range(40):
            result = compile_front_midend(generator.generate_indexed(index).clone())
            for snapshot in result.changed_snapshots():
                assert parse_program(snapshot.source) == snapshot.program, (
                    index,
                    snapshot.pass_name,
                )
                checked += 1
        assert checked == 244


class TestErrorMessages:
    """Exact messages: invalid-transformation reports quote them verbatim."""

    @pytest.mark.parametrize(
        "source, error, message",
        [
            (
                "header H { bit<8> a }",
                ParserError,
                "expected ';' (at line 1, column 21, near '}')",
            ),
            (
                "control c(inout bit<8> x) { }",
                ParserError,
                "control block is missing an apply block (at line 1, column 30, near '')",
            ),
            (
                "header H { bool flag; }",
                ParserError,
                "header fields must have type bit<N> (at line 1, column 17, near 'flag')",
            ),
            (
                "control c(inout bit<8> x) { apply { 8w1 = x; } }",
                ParserError,
                "left-hand side of assignment is not an l-value "
                "(at line 1, column 37, near '8w1')",
            ),
            (
                "control c(inout bit<8> x) { apply { x = (x + ; } }",
                ParserError,
                "expected an expression (at line 1, column 46, near ';')",
            ),
            (
                "struct S { H h[x]; }",
                ParserError,
                "expected header stack size (at line 1, column 16, near 'x')",
            ),
            ("a $ b", LexerError, "unexpected character '$' at line 1, column 3"),
            ("x = 0xZZ;", LexerError, "bad numeric literal '0xZZ' at line 1, column 5"),
            ("a /* never closed", LexerError, "unterminated block comment at line 1, column 3"),
            ("bit<8w> x;", LexerError, "missing value after width annotation at line 1, column 5"),
        ],
    )
    def test_malformed_input(self, source, error, message):
        with pytest.raises(error) as info:
            parse_program(source)
        assert str(info.value) == message

    def test_illegal_predication_temporary(self):
        # The declaration Predication emits under ``midend_emit_missing_parens``.
        source = (
            "control c(inout bit<8> x) {\n"
            "    action a() {\n"
            "        bool pred cond0 = (x == 8w1);\n"
            "    }\n"
            "    apply { }\n"
            "}\n"
        )
        with pytest.raises(ParserError) as info:
            parse_program(source)
        assert str(info.value) == "expected ';' (at line 3, column 19, near 'cond0')"
