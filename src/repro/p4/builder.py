"""Convenience helpers for constructing P4 AST programs programmatically.

The random program generator, the examples and many tests build programs
from Python; these helpers keep that code short and readable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.p4 import ast
from repro.p4.types import BitType, HeaderStackType, P4Type, TypeName


def bit(width: int) -> BitType:
    """``bit<width>``."""

    return BitType(width)


def const(value: int, width: Optional[int] = None) -> ast.Constant:
    """An integer literal, optionally width-annotated."""

    return ast.Constant(value, width)


def path(name: str) -> ast.PathExpression:
    """A reference to a variable/parameter by name."""

    return ast.PathExpression(name)


def member(expr: Union[str, ast.Expression], *fields: str) -> ast.Expression:
    """Member access; ``member("hdr", "h", "a")`` builds ``hdr.h.a``."""

    node: ast.Expression = path(expr) if isinstance(expr, str) else expr
    for field in fields:
        node = ast.Member(node, field)
    return node


def slice_(expr: ast.Expression, high: int, low: int) -> ast.Slice:
    """A bit slice ``expr[high:low]``."""

    return ast.Slice(expr, high, low)


def index_(expr: ast.Expression, index: int) -> ast.ArrayIndex:
    """A header-stack element access ``expr[index]``."""

    return ast.ArrayIndex(expr, ast.Constant(index))


def header_stack(element: Union[P4Type, str], size: int) -> HeaderStackType:
    """A header-stack type ``element[size]`` for struct fields."""

    resolved = TypeName(element) if isinstance(element, str) else element
    return HeaderStackType(resolved, size)


def push_front(stack_expr: ast.Expression, count: int) -> ast.MethodCallStatement:
    """``stack.push_front(count);``."""

    return call_stmt(ast.Member(stack_expr, "push_front"), const(count))


def pop_front(stack_expr: ast.Expression, count: int) -> ast.MethodCallStatement:
    """``stack.pop_front(count);``."""

    return call_stmt(ast.Member(stack_expr, "pop_front"), const(count))


def extract_next(stack_expr: ast.Expression) -> ast.MethodCallStatement:
    """``pkt.extract(stack.next);`` -- advance the stack's nextIndex."""

    return call_stmt(
        ast.Member(path("pkt"), "extract"), ast.Member(stack_expr, "next")
    )


def binop(op: str, left: ast.Expression, right: ast.Expression) -> ast.BinaryOp:
    """A binary operation."""

    return ast.BinaryOp(op, left, right)


def assign(lhs: ast.Expression, rhs: ast.Expression) -> ast.AssignmentStatement:
    """An assignment statement."""

    return ast.AssignmentStatement(lhs, rhs)


def block(*statements: ast.Statement) -> ast.BlockStatement:
    """A block statement."""

    return ast.BlockStatement(list(statements))


def if_(
    cond: ast.Expression,
    then: Sequence[ast.Statement],
    orelse: Optional[Sequence[ast.Statement]] = None,
) -> ast.IfStatement:
    """An if/else statement from statement sequences."""

    else_branch = ast.BlockStatement(list(orelse)) if orelse is not None else None
    return ast.IfStatement(cond, ast.BlockStatement(list(then)), else_branch)


def call(target: Union[str, ast.Expression], *args: ast.Expression) -> ast.MethodCallExpression:
    """A call expression; string targets are treated as paths."""

    target_expr = path(target) if isinstance(target, str) else target
    return ast.MethodCallExpression(target_expr, list(args))


def call_stmt(target: Union[str, ast.Expression], *args: ast.Expression) -> ast.MethodCallStatement:
    """A call statement."""

    return ast.MethodCallStatement(call(target, *args))


def set_valid(header_expr: ast.Expression) -> ast.MethodCallStatement:
    """``hdr.setValid();``."""

    return call_stmt(ast.Member(header_expr, "setValid"))


def set_invalid(header_expr: ast.Expression) -> ast.MethodCallStatement:
    """``hdr.setInvalid();``."""

    return call_stmt(ast.Member(header_expr, "setInvalid"))


def is_valid(header_expr: ast.Expression) -> ast.MethodCallExpression:
    """``hdr.isValid()``."""

    return call(ast.Member(header_expr, "isValid"))


def var_decl(
    name: str, var_type: P4Type, initializer: Optional[ast.Expression] = None
) -> ast.VariableDeclaration:
    """A variable declaration statement."""

    return ast.VariableDeclaration(name, var_type, initializer)


def param(direction: str, param_type: Union[P4Type, str], name: str) -> ast.Parameter:
    """A parameter; string types become :class:`TypeName` references."""

    resolved = TypeName(param_type) if isinstance(param_type, str) else param_type
    return ast.Parameter(direction, resolved, name)


def header_decl(name: str, fields: Iterable[Tuple[str, int]]) -> ast.HeaderDeclaration:
    """A header declaration from ``(field_name, width)`` pairs."""

    return ast.HeaderDeclaration(name, [(field, BitType(width)) for field, width in fields])


def struct_decl(
    name: str, fields: Iterable[Tuple[str, Union[P4Type, str]]]
) -> ast.StructDeclaration:
    """A struct declaration; string field types become type names."""

    resolved: List[Tuple[str, P4Type]] = []
    for field, field_type in fields:
        resolved.append((field, TypeName(field_type) if isinstance(field_type, str) else field_type))
    return ast.StructDeclaration(name, resolved)


def action(name: str, params: Sequence[ast.Parameter], *body: ast.Statement) -> ast.ActionDeclaration:
    """An action declaration."""

    return ast.ActionDeclaration(name, list(params), ast.BlockStatement(list(body)))


def table(
    name: str,
    keys: Sequence[Tuple[ast.Expression, str]],
    actions: Sequence[str],
    default_action: str = "NoAction",
) -> ast.TableDeclaration:
    """A table declaration from simple key/action name lists."""

    return ast.TableDeclaration(
        name,
        [ast.KeyElement(expr, kind) for expr, kind in keys],
        [ast.ActionRef(action_name) for action_name in actions],
        ast.ActionRef(default_action),
    )


def control(
    name: str,
    params: Sequence[ast.Parameter],
    locals_: Sequence[ast.Node],
    *apply_body: ast.Statement,
) -> ast.ControlDeclaration:
    """A control declaration."""

    return ast.ControlDeclaration(
        name, list(params), list(locals_), ast.BlockStatement(list(apply_body))
    )


def program(*declarations: ast.Declaration) -> ast.Program:
    """A whole program."""

    return ast.Program(list(declarations))
