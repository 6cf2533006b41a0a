"""The ``ToP4`` module: render an AST program back to P4 source text.

P4C maintains the invariant that the output of every front- and mid-end pass
can be emitted as a syntactically valid P4 program (paper §7.2, *invalid
transformations*).  Gauntlet checks this invariant by reparsing every emitted
program; the emitter therefore produces fully parenthesised expressions so
that the parse/emit round trip is structure preserving.

A caller that emits several programs sharing subtrees -- the snapshots of
one compilation -- passes one :data:`EmitMemo` to every
:func:`emit_program` call, and each declaration and statement object is
rendered once: its text is a function of the node and its indentation
depth, so the memo keys it by ``(id(node), depth)`` and holds the node in
the entry, which keeps the id from being reused.  That is only sound while
nothing writes to a node the memo holds, which the compiler's
copy-on-write passes guarantee within one compilation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.p4 import ast
from repro.p4.types import HeaderStackType, P4Type


INDENT = "    "

#: ``(id(node), depth) -> (node, text)`` of declarations and statements
#: already rendered (see the module docstring).
EmitMemo = Dict[Tuple[int, int], Tuple[ast.Node, str]]


def emit_program(program: ast.Program, memo: Optional[EmitMemo] = None) -> str:
    """Render a program as P4 source text, reusing the texts in ``memo``."""

    parts = [_emit_declaration(decl, memo) for decl in program.declarations]
    return "\n".join(parts) + "\n"


def _memoised(render, node: ast.Node, depth: int, memo: Optional[EmitMemo]) -> str:
    if memo is None:
        return render(node, depth, memo)
    key = (id(node), depth)
    entry = memo.get(key)
    if entry is None:
        text = render(node, depth, memo)
        memo[key] = (node, text)
        return text
    return entry[1]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


def _emit_declaration(decl: ast.Declaration, memo: Optional[EmitMemo]) -> str:
    return _memoised(_render_declaration, decl, 0, memo)


def _render_declaration(decl: ast.Declaration, _depth: int, memo: Optional[EmitMemo]) -> str:
    if isinstance(decl, ast.HeaderDeclaration):
        fields = "".join(
            f"{INDENT}{field_type} {name};\n" for name, field_type in decl.fields
        )
        return f"header {decl.name} {{\n{fields}}}\n"
    if isinstance(decl, ast.StructDeclaration):
        fields = "".join(
            _emit_struct_field(name, field_type) for name, field_type in decl.fields
        )
        return f"struct {decl.name} {{\n{fields}}}\n"
    if isinstance(decl, ast.FunctionDeclaration):
        params = _emit_params(decl.params)
        body = _emit_block(decl.body, 0, memo)
        return f"{decl.return_type} {decl.name}({params}) {body}\n"
    if isinstance(decl, ast.ControlDeclaration):
        return _emit_control(decl, memo)
    if isinstance(decl, ast.ParserDeclaration):
        return _emit_parser(decl, memo)
    raise TypeError(f"cannot emit declaration of type {type(decl).__name__}")


def _emit_struct_field(name: str, field_type: P4Type) -> str:
    if isinstance(field_type, HeaderStackType):
        # P4 puts the stack size after the field name: ``Hdr_t h[4];``.
        return f"{INDENT}{field_type.element} {name}[{field_type.size}];\n"
    return f"{INDENT}{field_type} {name};\n"


def _emit_params(params: List[ast.Parameter]) -> str:
    rendered = []
    for param in params:
        direction = f"{param.direction} " if param.direction else ""
        rendered.append(f"{direction}{param.param_type} {param.name}")
    return ", ".join(rendered)


def _emit_control(decl: ast.ControlDeclaration, memo: Optional[EmitMemo]) -> str:
    lines = [f"control {decl.name}({_emit_params(decl.params)}) {{"]
    for local in decl.locals:
        if isinstance(local, ast.VariableDeclaration):
            lines.append(INDENT + _emit_variable_declaration(local))
        elif isinstance(local, ast.ActionDeclaration):
            body = _emit_block(local.body, 1, memo)
            lines.append(f"{INDENT}action {local.name}({_emit_params(local.params)}) {body}")
        elif isinstance(local, ast.TableDeclaration):
            lines.append(_emit_table(local, 1))
        elif isinstance(local, ast.RegisterDeclaration):
            lines.append(f"{INDENT}register<bit<{local.width}>>({local.size}) {local.name};")
        elif isinstance(local, ast.CounterDeclaration):
            lines.append(f"{INDENT}counter({local.size}) {local.name};")
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot emit control local {type(local).__name__}")
    lines.append(f"{INDENT}apply {_emit_block(decl.apply, 1, memo)}")
    lines.append("}\n")
    return "\n".join(lines)


def _emit_table(table: ast.TableDeclaration, depth: int) -> str:
    pad = INDENT * depth
    inner = INDENT * (depth + 1)
    inner2 = INDENT * (depth + 2)
    lines = [f"{pad}table {table.name} {{"]
    if table.keys:
        lines.append(f"{inner}key = {{")
        for key in table.keys:
            lines.append(f"{inner2}{emit_expression(key.expr)} : {key.match_kind};")
        lines.append(f"{inner}}}")
    lines.append(f"{inner}actions = {{")
    for action in table.actions:
        lines.append(f"{inner2}{_emit_action_ref(action)};")
    lines.append(f"{inner}}}")
    if table.default_action is not None:
        lines.append(f"{inner}default_action = {_emit_action_ref(table.default_action)};")
    lines.append(f"{pad}}}")
    return "\n".join(lines)


def _emit_action_ref(ref: ast.ActionRef) -> str:
    args = ", ".join(emit_expression(arg) for arg in ref.args)
    return f"{ref.name}({args})"


def _emit_parser(decl: ast.ParserDeclaration, memo: Optional[EmitMemo]) -> str:
    lines = [f"parser {decl.name}({_emit_params(decl.params)}) {{"]
    for state in decl.states:
        lines.append(f"{INDENT}state {state.name} {{")
        for statement in state.statements:
            lines.append(_emit_statement(statement, 2, memo))
        if state.select_expr is not None:
            lines.append(f"{INDENT * 2}transition select ({emit_expression(state.select_expr)}) {{")
            for case in state.cases:
                value = "default" if case.value is None else emit_expression(case.value)
                lines.append(f"{INDENT * 3}{value} : {case.next_state};")
            lines.append(f"{INDENT * 2}}}")
        elif state.next_state is not None:
            lines.append(f"{INDENT * 2}transition {state.next_state};")
        lines.append(f"{INDENT}}}")
    lines.append("}\n")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def _emit_block(block: ast.BlockStatement, depth: int, memo: Optional[EmitMemo]) -> str:
    if not block.statements:
        return "{\n" + INDENT * depth + "}"
    lines = ["{"]
    for statement in block.statements:
        lines.append(_emit_statement(statement, depth + 1, memo))
    lines.append(INDENT * depth + "}")
    return "\n".join(lines)


def _emit_variable_declaration(decl: ast.VariableDeclaration) -> str:
    if decl.initializer is not None:
        return f"{decl.var_type} {decl.name} = {emit_expression(decl.initializer)};"
    return f"{decl.var_type} {decl.name};"


def _emit_statement(statement: ast.Statement, depth: int, memo: Optional[EmitMemo]) -> str:
    return _memoised(_render_statement, statement, depth, memo)


def _render_statement(statement: ast.Statement, depth: int, memo: Optional[EmitMemo]) -> str:
    pad = INDENT * depth
    if isinstance(statement, ast.BlockStatement):
        return pad + _emit_block(statement, depth, memo)
    if isinstance(statement, ast.AssignmentStatement):
        return f"{pad}{emit_expression(statement.lhs)} = {emit_expression(statement.rhs)};"
    if isinstance(statement, ast.MethodCallStatement):
        return f"{pad}{emit_expression(statement.call)};"
    if isinstance(statement, ast.VariableDeclaration):
        return pad + _emit_variable_declaration(statement)
    if isinstance(statement, ast.IfStatement):
        text = f"{pad}if ({emit_expression(statement.cond)}) "
        text += _emit_block(statement.then_branch, depth, memo)
        if statement.else_branch is not None:
            text += " else " + _emit_block(statement.else_branch, depth, memo)
        return text
    if isinstance(statement, ast.ReturnStatement):
        if statement.value is None:
            return f"{pad}return;"
        return f"{pad}return {emit_expression(statement.value)};"
    if isinstance(statement, ast.ExitStatement):
        return f"{pad}exit;"
    if isinstance(statement, ast.EmptyStatement):
        return f"{pad};"
    raise TypeError(f"cannot emit statement of type {type(statement).__name__}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def emit_expression(expr: ast.Expression) -> str:
    """Render an expression with explicit parentheses."""

    if isinstance(expr, ast.Constant):
        if expr.width is not None:
            return f"{expr.width}w{expr.value}"
        return str(expr.value)
    if isinstance(expr, ast.BoolLiteral):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.PathExpression):
        return expr.name
    if isinstance(expr, ast.Member):
        return f"{emit_expression(expr.expr)}.{expr.member}"
    if isinstance(expr, ast.ArrayIndex):
        return f"{emit_expression(expr.expr)}[{emit_expression(expr.index)}]"
    if isinstance(expr, ast.Slice):
        return f"{emit_expression(expr.expr)}[{expr.high}:{expr.low}]"
    if isinstance(expr, ast.BinaryOp):
        return f"({emit_expression(expr.left)} {expr.op} {emit_expression(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        return f"({expr.op}{emit_expression(expr.expr)})"
    if isinstance(expr, ast.Ternary):
        return (
            f"({emit_expression(expr.cond)} ? {emit_expression(expr.then)}"
            f" : {emit_expression(expr.orelse)})"
        )
    if isinstance(expr, ast.Cast):
        return f"(({_emit_type(expr.target)}) {emit_expression(expr.expr)})"
    if isinstance(expr, ast.MethodCallExpression):
        args = ", ".join(emit_expression(arg) for arg in expr.args)
        return f"{emit_expression(expr.target)}({args})"
    raise TypeError(f"cannot emit expression of type {type(expr).__name__}")


def _emit_type(p4_type: P4Type) -> str:
    return str(p4_type)
