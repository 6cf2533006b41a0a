"""Recursive-descent parser for the P4-16 subset, with precedence climbing.

The parser produces :mod:`repro.p4.ast` nodes.  It accepts exactly the
subset the random program generator and the ``ToP4`` emitter produce, which
is what Gauntlet's "reparse every emitted program" check needs (paper §7.2,
*invalid transformations*).

Declarations and statements are parsed by recursive descent.  Binary
expressions are parsed by precedence climbing over one operator → level
table (:data:`BINARY_PRECEDENCE`): an operand costs one call whatever its
depth in the eleven precedence levels, instead of one call per level.

:func:`parse_program` reparses the snapshots of one compilation, which
share most of their lines, so it reuses what earlier parses built: the
lexer's shared per-line tokens and, by line text, every statement that
spans exactly one line (:data:`_LINE_STATEMENTS`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.metrics import MISSING, LruCache
from repro.p4 import ast
from repro.p4.lexer import Lexer, LexerError, Token, TokenKind, line_tokens
from repro.p4.types import BitType, BoolType, HeaderStackType, P4Type, TypeName, VoidType


class ParserError(Exception):
    """Raised when the source does not conform to the subset grammar."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{message} (at line {token.line}, column {token.column}, near {token.text!r})")
        self.token = token


#: Binary operator -> precedence level.  A higher level binds tighter, and
#: every level associates to the left.  Lowest first: ``||``, ``&&``,
#: equality, relational, ``|``, ``^``, ``&``, shifts, concatenation,
#: additive, multiplicative.
BINARY_PRECEDENCE: Dict[str, int] = {
    operator: level
    for level, operators in enumerate(
        (
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
        )
    )
    for operator in operators
}

_UNARY_OPERATORS = frozenset({"!", "~", "-"})
_TYPE_KEYWORDS = frozenset({"bit", "bool", "void"})

_IDENTIFIER = TokenKind.IDENTIFIER
_NUMBER = TokenKind.NUMBER
_KEYWORD = TokenKind.KEYWORD
_END = TokenKind.END

#: line text -> the statement the line parses to, for each line that holds
#: exactly one statement other than ``if`` and blocks.  Those statements end
#: in a ``;`` after which the parser reads no token, so their parse is a
#: function of their line alone; ``if`` reads past its line for an
#: ``else``, and blocks are left out with it.  The statement nodes are
#: shared by every program they are part of.
_LINE_STATEMENTS = LruCache("statements", 2048)

_LINE_SPANNING = (ast.IfStatement, ast.BlockStatement)

#: The END token of a token list assembled from the line memo.
_MEMO_END = Token(TokenKind.END, "")


def clear_parser_cache() -> None:
    """Drop the statement memo (the counters keep growing)."""

    _LINE_STATEMENTS.clear()


class Parser:
    """Parse a token stream into a :class:`repro.p4.ast.Program`.

    The token list ends in the lexer's END token, repeated once so that one
    token of lookahead past the current one is always in range; the
    position never moves past the first END.
    """

    def __init__(self, source: str) -> None:
        tokens = Lexer(source).tokenize()
        tokens.append(tokens[-1])
        self.tokens = tokens
        self.position = 0
        #: First token index of a line -> (line text, index past the line's
        #: last token): where the statement memo may answer.  Empty unless
        #: the parser was built by :meth:`from_line_memo`.
        self.lines: Dict[int, Tuple[str, int]] = {}

    @classmethod
    def from_line_memo(cls, source: str) -> "Parser":
        """A parser over the lexer memo's shared tokens that answers one-line
        statements from the statement memo.

        Its tokens carry line 0 and its END token no position, so an error
        it raises has the wrong position: :func:`parse_program` reparses
        with the exact parser then.  ``source`` must not contain ``/*``.
        """

        parser = cls.__new__(cls)
        tokens: List[Token] = []
        lines: Dict[int, Tuple[str, int]] = {}
        for text in source.split("\n"):
            entry = line_tokens(text)
            if entry:
                start = len(tokens)
                tokens += entry
                lines[start] = (text, len(tokens))
        tokens += (_MEMO_END, _MEMO_END)
        parser.tokens = tokens
        parser.position = 0
        parser.lines = lines
        return parser

    # -- token plumbing -------------------------------------------------------
    #
    # Symbols and keywords are matched on their text alone.  That is exact:
    # the lexer makes every keyword-spelled word a KEYWORD token, and
    # punctuation never occurs inside a word or a number.

    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.position + offset]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind is not _END:
            self.position += 1
        return token

    def _accept(self, text: str) -> bool:
        if self.tokens[self.position].text == text:
            self.position += 1
            return True
        return False

    def _expect_symbol(self, text: str) -> Token:
        token = self.tokens[self.position]
        if token.text != text:
            raise ParserError(f"expected {text!r}", token)
        self.position += 1
        return token

    def _expect_keyword(self, text: str) -> Token:
        token = self.tokens[self.position]
        if token.text != text:
            raise ParserError(f"expected keyword {text!r}", token)
        self.position += 1
        return token

    def _expect_identifier(self) -> str:
        token = self.tokens[self.position]
        if token.kind is not _IDENTIFIER:
            raise ParserError("expected identifier", token)
        self.position += 1
        return token.text

    def _expect_number(self, what: str) -> int:
        token = self.tokens[self.position]
        if token.kind is not _NUMBER:
            raise ParserError(f"expected {what}", token)
        self.position += 1
        return int(token.value)

    # -- program ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        declarations: List[ast.Declaration] = []
        while self._peek().kind is not _END:
            declarations.append(self._parse_top_level())
        return ast.Program(declarations)

    def _parse_top_level(self) -> ast.Declaration:
        token = self._peek()
        text = token.text
        if text == "header":
            return self._parse_header()
        if text == "struct":
            return self._parse_struct()
        if text == "control":
            return self._parse_control()
        if text == "parser":
            return self._parse_parser()
        if text in _TYPE_KEYWORDS or token.kind is _IDENTIFIER:
            return self._parse_function()
        raise ParserError("expected a top-level declaration", token)

    # -- types -----------------------------------------------------------------

    def _parse_type(self) -> P4Type:
        token = self._peek()
        text = token.text
        if text == "bit":
            self.position += 1
            self._expect_symbol("<")
            width = self._expect_number("bit width")
            self._expect_symbol(">")
            return BitType(width)
        if text == "bool":
            self.position += 1
            return BoolType()
        if text == "void":
            self.position += 1
            return VoidType()
        if token.kind is _IDENTIFIER:
            self.position += 1
            return TypeName(text)
        raise ParserError("expected a type", token)

    def _looks_like_type(self) -> bool:
        token = self._peek()
        if token.text in _TYPE_KEYWORDS:
            return True
        return token.kind is _IDENTIFIER and self._peek(1).kind is _IDENTIFIER

    # -- simple declarations ----------------------------------------------------

    def _parse_header(self) -> ast.HeaderDeclaration:
        self._expect_keyword("header")
        name = self._expect_identifier()
        self._expect_symbol("{")
        fields: List[Tuple[str, BitType]] = []
        while not self._accept("}"):
            field_type = self._parse_type()
            if not isinstance(field_type, BitType):
                raise ParserError("header fields must have type bit<N>", self._peek())
            field_name = self._expect_identifier()
            self._expect_symbol(";")
            fields.append((field_name, field_type))
        return ast.HeaderDeclaration(name, fields)

    def _parse_struct(self) -> ast.StructDeclaration:
        self._expect_keyword("struct")
        name = self._expect_identifier()
        self._expect_symbol("{")
        fields: List[Tuple[str, P4Type]] = []
        while not self._accept("}"):
            field_type = self._parse_type()
            field_name = self._expect_identifier()
            # Header-stack field: ``Hdr_t h[4];`` -- the size follows the name.
            if self._accept("["):
                size = self._expect_number("header stack size")
                self._expect_symbol("]")
                field_type = HeaderStackType(field_type, size)
            self._expect_symbol(";")
            fields.append((field_name, field_type))
        return ast.StructDeclaration(name, fields)

    def _parse_parameters(self) -> List[ast.Parameter]:
        self._expect_symbol("(")
        params: List[ast.Parameter] = []
        if self._accept(")"):
            return params
        while True:
            direction = ""
            if self._peek().text in ("inout", "in", "out"):
                direction = self._advance().text
            param_type = self._parse_type()
            name = self._expect_identifier()
            params.append(ast.Parameter(direction, param_type, name))
            if self._accept(")"):
                return params
            self._expect_symbol(",")

    def _parse_function(self) -> ast.FunctionDeclaration:
        return_type = self._parse_type()
        name = self._expect_identifier()
        params = self._parse_parameters()
        body = self._parse_block()
        return ast.FunctionDeclaration(name, return_type, params, body)

    # -- controls ------------------------------------------------------------------

    def _parse_control(self) -> ast.ControlDeclaration:
        self._expect_keyword("control")
        name = self._expect_identifier()
        params = self._parse_parameters()
        self._expect_symbol("{")
        locals_: List[ast.Node] = []
        apply_block: Optional[ast.BlockStatement] = None
        while not self._accept("}"):
            text = self._peek().text
            if text == "action":
                locals_.append(self._parse_action())
            elif text == "table":
                locals_.append(self._parse_table())
            elif text == "apply":
                self.position += 1
                apply_block = self._parse_block()
            elif text == "register" and self._peek(1).text == "<":
                # Contextual keyword: ``register`` stays a valid identifier
                # everywhere else, so existing programs are unaffected.
                locals_.append(self._parse_register())
            elif text == "counter" and self._peek(1).text == "(":
                locals_.append(self._parse_counter())
            else:
                locals_.append(self._parse_variable_declaration())
        if apply_block is None:
            raise ParserError("control block is missing an apply block", self._peek())
        return ast.ControlDeclaration(name, params, locals_, apply_block)

    def _parse_register(self) -> ast.RegisterDeclaration:
        self.position += 1  # the contextual 'register' identifier
        self._expect_symbol("<")
        self._expect_keyword("bit")
        self._expect_symbol("<")
        width = self._expect_number("register cell width")
        # ``register<bit<8>>`` -- the lexer tokenizes the double close as a
        # single ``>>`` shift symbol, so accept either form.
        if not self._accept(">>"):
            self._expect_symbol(">")
            self._expect_symbol(">")
        self._expect_symbol("(")
        size = self._expect_number("register size")
        self._expect_symbol(")")
        name = self._expect_identifier()
        self._expect_symbol(";")
        return ast.RegisterDeclaration(name, width, size)

    def _parse_counter(self) -> ast.CounterDeclaration:
        self.position += 1  # the contextual 'counter' identifier
        self._expect_symbol("(")
        size = self._expect_number("counter size")
        self._expect_symbol(")")
        name = self._expect_identifier()
        self._expect_symbol(";")
        return ast.CounterDeclaration(name, size)

    def _parse_action(self) -> ast.ActionDeclaration:
        self._expect_keyword("action")
        name = self._expect_identifier()
        params = self._parse_parameters()
        body = self._parse_block()
        return ast.ActionDeclaration(name, params, body)

    def _parse_table(self) -> ast.TableDeclaration:
        self._expect_keyword("table")
        name = self._expect_identifier()
        self._expect_symbol("{")
        keys: List[ast.KeyElement] = []
        actions: List[ast.ActionRef] = []
        default_action: Optional[ast.ActionRef] = None
        while not self._accept("}"):
            if self._accept("key"):
                self._expect_symbol("=")
                self._expect_symbol("{")
                while not self._accept("}"):
                    expr = self._parse_expression()
                    self._expect_symbol(":")
                    match_kind = self._advance().text
                    self._expect_symbol(";")
                    keys.append(ast.KeyElement(expr, match_kind))
            elif self._accept("actions"):
                self._expect_symbol("=")
                self._expect_symbol("{")
                while not self._accept("}"):
                    actions.append(self._parse_action_ref())
                    self._expect_symbol(";")
            elif self._accept("default_action"):
                self._expect_symbol("=")
                default_action = self._parse_action_ref()
                self._expect_symbol(";")
            else:
                raise ParserError("unexpected table property", self._peek())
        return ast.TableDeclaration(name, keys, actions, default_action)

    def _parse_action_ref(self) -> ast.ActionRef:
        token = self._peek()
        if token.kind is not _IDENTIFIER and token.kind is not _KEYWORD:
            raise ParserError("expected action name", token)
        self.position += 1
        return ast.ActionRef(token.text, self._parse_arguments() if self._accept("(") else [])

    def _parse_arguments(self) -> List[ast.Expression]:
        """Comma-separated expressions up to ``)``; the ``(`` is consumed."""

        args: List[ast.Expression] = []
        if not self._accept(")"):
            while True:
                args.append(self._parse_expression())
                if self._accept(")"):
                    break
                self._expect_symbol(",")
        return args

    # -- parsers ----------------------------------------------------------------------

    def _parse_parser(self) -> ast.ParserDeclaration:
        self._expect_keyword("parser")
        name = self._expect_identifier()
        params = self._parse_parameters()
        self._expect_symbol("{")
        states: List[ast.ParserState] = []
        while not self._accept("}"):
            states.append(self._parse_state())
        return ast.ParserDeclaration(name, params, states)

    def _parse_state(self) -> ast.ParserState:
        self._expect_keyword("state")
        name = self._expect_identifier()
        self._expect_symbol("{")
        statements: List[ast.Statement] = []
        state = ast.ParserState(name)
        while not self._accept("}"):
            if self._accept("transition"):
                if self._accept("select"):
                    self._expect_symbol("(")
                    state.select_expr = self._parse_expression()
                    self._expect_symbol(")")
                    self._expect_symbol("{")
                    while not self._accept("}"):
                        if self._accept("default"):
                            value = None
                        else:
                            value = self._parse_expression()
                        self._expect_symbol(":")
                        target = self._parse_state_name()
                        self._expect_symbol(";")
                        state.cases.append(ast.SelectCase(value, target))
                else:
                    state.next_state = self._parse_state_name()
                    self._expect_symbol(";")
            else:
                statements.append(self._parse_statement())
        state.statements = statements
        return state

    def _parse_state_name(self) -> str:
        token = self._peek()
        if token.kind is _IDENTIFIER or token.kind is _KEYWORD:
            self.position += 1
            return token.text
        raise ParserError("expected state name", token)

    # -- statements -----------------------------------------------------------------------

    def _parse_block(self) -> ast.BlockStatement:
        self._expect_symbol("{")
        statements: List[ast.Statement] = []
        while not self._accept("}"):
            statements.append(self._parse_statement())
        return ast.BlockStatement(statements)

    def _parse_statement(self) -> ast.Statement:
        line = self.lines.get(self.position)
        if line is None:
            return self._parse_one_statement()
        text, end = line
        statement = _LINE_STATEMENTS.get(text)
        if statement is not MISSING:
            self.position = end
            return statement  # type: ignore[return-value]
        statement = self._parse_one_statement()
        if self.position == end and not isinstance(statement, _LINE_SPANNING):
            _LINE_STATEMENTS.put(text, statement)
        return statement

    def _parse_one_statement(self) -> ast.Statement:
        token = self._peek()
        text = token.text
        if text == "{":
            return self._parse_block()
        if text == ";":
            self.position += 1
            return ast.EmptyStatement()
        if text == "if":
            return self._parse_if()
        if text == "return":
            self.position += 1
            if self._accept(";"):
                return ast.ReturnStatement(None)
            value = self._parse_expression()
            self._expect_symbol(";")
            return ast.ReturnStatement(value)
        if text == "exit":
            self.position += 1
            self._expect_symbol(";")
            return ast.ExitStatement()
        if self._looks_like_type():
            return self._parse_variable_declaration()
        # Assignment or method-call statement.
        expr = self._parse_expression()
        if self._accept("="):
            rhs = self._parse_expression()
            self._expect_symbol(";")
            if not ast.is_lvalue(expr):
                raise ParserError("left-hand side of assignment is not an l-value", token)
            return ast.AssignmentStatement(expr, rhs)
        self._expect_symbol(";")
        if isinstance(expr, ast.MethodCallExpression):
            return ast.MethodCallStatement(expr)
        raise ParserError("expression statements must be method calls", token)

    def _parse_variable_declaration(self) -> ast.VariableDeclaration:
        var_type = self._parse_type()
        name = self._expect_identifier()
        initializer = None
        if self._accept("="):
            initializer = self._parse_expression()
        self._expect_symbol(";")
        return ast.VariableDeclaration(name, var_type, initializer)

    def _parse_if(self) -> ast.IfStatement:
        self._expect_keyword("if")
        self._expect_symbol("(")
        cond = self._parse_expression()
        self._expect_symbol(")")
        then_branch = self._as_block(self._parse_statement())
        else_branch = None
        if self._accept("else"):
            else_branch = self._as_block(self._parse_statement())
        return ast.IfStatement(cond, then_branch, else_branch)

    @staticmethod
    def _as_block(statement: ast.Statement) -> ast.BlockStatement:
        if isinstance(statement, ast.BlockStatement):
            return statement
        return ast.BlockStatement([statement])

    # -- expressions -------------------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        cond = self._parse_binary(0)
        if self._accept("?"):
            then = self._parse_expression()
            self._expect_symbol(":")
            orelse = self._parse_expression()
            return ast.Ternary(cond, then, orelse)
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expression:
        """Operators of ``min_level`` and tighter, by precedence climbing.

        After an operand, every operator at or above ``min_level`` extends
        the expression; its right operand takes only tighter operators, so
        chains of one level group to the left.
        """

        left = self._parse_unary()
        tokens = self.tokens
        while True:
            token = tokens[self.position]
            level = BINARY_PRECEDENCE.get(token.text)
            if level is None or level < min_level:
                return left
            self.position += 1
            left = ast.BinaryOp(token.text, left, self._parse_binary(level + 1))

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.text in _UNARY_OPERATORS:
            self.position += 1
            return ast.UnaryOp(token.text, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expression:
        expr = self._parse_primary()
        tokens = self.tokens
        while True:
            text = tokens[self.position].text
            if text == ".":
                self.position += 1
                member_token = tokens[self.position]
                if member_token.kind is not _IDENTIFIER and member_token.kind is not _KEYWORD:
                    raise ParserError("expected member name", member_token)
                self.position += 1
                expr = ast.Member(expr, member_token.text)
            elif text == "[":
                self.position += 1
                high = self._parse_expression()
                if self._accept("]"):
                    # Header-stack element access ``stack[index]`` -- no colon.
                    expr = ast.ArrayIndex(expr, high)
                    continue
                self._expect_symbol(":")
                low = self._parse_expression()
                self._expect_symbol("]")
                if not isinstance(high, ast.Constant) or not isinstance(low, ast.Constant):
                    raise ParserError("slice bounds must be constants", self._peek())
                expr = ast.Slice(expr, high.value, low.value)
            elif text == "(":
                self.position += 1
                expr = ast.MethodCallExpression(expr, self._parse_arguments())
            else:
                return expr

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        kind = token.kind
        if kind is _NUMBER:
            self.position += 1
            return ast.Constant(token.value, token.width)
        if kind is _IDENTIFIER:
            self.position += 1
            return ast.PathExpression(token.text)
        text = token.text
        if text == "true":
            self.position += 1
            return ast.BoolLiteral(True)
        if text == "false":
            self.position += 1
            return ast.BoolLiteral(False)
        if text == "(":
            # Either a cast "(bit<8>) expr" / "(bool) expr" or a parenthesised
            # expression.
            self.position += 1
            if self._peek().text in ("bit", "bool"):
                target = self._parse_type()
                self._expect_symbol(")")
                return ast.Cast(target, self._parse_unary())
            expr = self._parse_expression()
            self._expect_symbol(")")
            return expr
        raise ParserError("expected an expression", token)


def parse_program(source: str) -> ast.Program:
    """Parse P4 source text into an AST program.

    The program is built from the lexer's line memo and the statement memo
    (:meth:`Parser.from_line_memo`).  Whenever that raises a
    :class:`ParserError` or :class:`~repro.p4.lexer.LexerError`, or the
    source contains ``/*``, the exact parser over :meth:`Lexer.tokenize`
    runs instead, so the AST and every error message are those of the
    exact parse.

    The returned program shares its one-line statements with every other
    program this function returned, so callers must not write to any of
    its nodes: clone it first (:meth:`repro.p4.ast.Node.clone`), as
    compiler passes and the reducer do.
    """

    if "/*" not in source:
        try:
            return Parser.from_line_memo(source).parse_program()
        except (ParserError, LexerError):
            pass  # its position is wrong: the exact parse raises the error again
    return Parser(source).parse_program()
