"""Transformation classes for the reducer.

Every transformation has the signature ``transform(program, accept) ->
bool``: it mutates ``program`` in place, calls ``accept(program)`` after
each candidate edit, keeps the edit when the oracle accepts it and undoes
it otherwise, and returns whether anything was kept.  Edits are enumerated
in program order with no randomness, so a reduction is a deterministic
function of (program, oracle).

The classes go beyond plain statement deletion — the paper's manual
pruning workflow also strips tables, actions, parser states and header
fields, and each of those needs its own edit shape.  The reducer runs
them as two fixed lists.  :data:`PRIMARY_TRANSFORMS`, repeated to their
fixpoint:

* ``prune_declarations``    — drop whole top-level declarations,
* ``prune_control_locals``  — drop control-local tables/actions/variables,
* ``delete_statements``     — ddmin-style chunked statement deletion,
  recursing into ``if`` branches and nested blocks,
* ``shrink_parsers``        — drop parser states, flatten ``select``
  transitions, prune select cases,
* ``simplify_expressions``  — hoist operands over their operators and try
  literal replacements, walking the live tree top-down,
* ``shrink_stacks``         — shrink header-stack sizes towards one element,
* ``shrink_registers``      — shrink register/counter bank sizes towards
  one cell (the oracle replays the finding's full packet sequence);

then :data:`POLISH_TRANSFORMS`, once:

* ``prune_table_properties``— drop table keys, action refs and the
  default action,
* ``shrink_headers``        — drop header/struct fields (including whole
  stack fields).

A structurally invalid edit (dangling reference, type mismatch) is simply
rejected by the oracle's typecheck gate — transformations never reason
about uses, which keeps each edit shape a few lines.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

from repro.p4 import ast
from repro.p4.types import HeaderStackType

Accept = Callable[[ast.Program], bool]


# ----------------------------------------------------------------------
# Shared list shrinkers
# ----------------------------------------------------------------------

def _shrink_plain_list(program: ast.Program, items: List, accept: Accept) -> bool:
    """Try to delete each item of ``items`` in turn (no recursion)."""

    changed = False
    index = 0
    while index < len(items):
        removed = items[index]
        del items[index]
        if accept(program):
            changed = True
            continue  # keep the deletion; the next item shifted into index
        items.insert(index, removed)
        index += 1
    return changed


def _shrink_statement_list(
    program: ast.Program, statements: List[ast.Statement], accept: Accept
) -> bool:
    """Chunked (ddmin-style) deletion over one statement list.

    Large contiguous chunks go first — most of a random program is
    irrelevant to any one bug, so halving passes remove it in O(log n)
    oracle calls instead of one call per statement — then a singleton pass
    recurses into the compound statements that had to stay.
    """

    changed = False
    chunk = len(statements) // 2
    while chunk >= 2:
        index = 0
        while index < len(statements):
            removed = statements[index : index + chunk]
            del statements[index : index + chunk]
            if accept(program):
                changed = True
                continue
            # Re-insert, don't overwrite: after the deletion the following
            # statements slid into [index, index + chunk), and a slice
            # *assignment* there would silently drop them — an edit the
            # oracle never approved.
            statements[index:index] = removed
            index += chunk
        chunk //= 2
    index = 0
    while index < len(statements):
        removed = statements[index]
        del statements[index]
        if accept(program):
            changed = True
            continue
        statements.insert(index, removed)
        if isinstance(removed, ast.IfStatement):
            changed |= _shrink_statement_list(
                program, removed.then_branch.statements, accept
            )
            if removed.else_branch is not None:
                changed |= _shrink_statement_list(
                    program, removed.else_branch.statements, accept
                )
        elif isinstance(removed, ast.BlockStatement):
            changed |= _shrink_statement_list(program, removed.statements, accept)
        index += 1
    return changed


# ----------------------------------------------------------------------
# Declaration-level pruning
# ----------------------------------------------------------------------

def prune_declarations(program: ast.Program, accept: Accept) -> bool:
    """Try to drop whole top-level declarations (headers, parsers, ...)."""

    return _shrink_plain_list(program, program.declarations, accept)


def prune_control_locals(program: ast.Program, accept: Accept) -> bool:
    """Try to drop control-local declarations (tables, actions, variables)."""

    changed = False
    for control in program.controls():
        changed |= _shrink_plain_list(program, control.locals, accept)
    return changed


def prune_table_properties(program: ast.Program, accept: Accept) -> bool:
    """Shrink tables in place: keys, action refs, the default action."""

    changed = False
    for control in program.controls():
        for table in control.locals:
            if not isinstance(table, ast.TableDeclaration):
                continue
            changed |= _shrink_plain_list(program, table.keys, accept)
            changed |= _shrink_plain_list(program, table.actions, accept)
            if table.default_action is not None:
                saved = table.default_action
                table.default_action = None
                if accept(program):
                    changed = True
                else:
                    table.default_action = saved
    return changed


# ----------------------------------------------------------------------
# Statement deletion
# ----------------------------------------------------------------------

def delete_statements(program: ast.Program, accept: Accept) -> bool:
    """Delete statements from every executable body in the program."""

    changed = False
    for control in program.controls():
        changed |= _shrink_statement_list(program, control.apply.statements, accept)
        for local in control.locals:
            if isinstance(local, ast.ActionDeclaration):
                changed |= _shrink_statement_list(
                    program, local.body.statements, accept
                )
    for function in program.functions():
        changed |= _shrink_statement_list(program, function.body.statements, accept)
    for parser in program.parsers():
        for state in parser.states:
            changed |= _shrink_statement_list(program, state.statements, accept)
    return changed


# ----------------------------------------------------------------------
# Parser shrinking
# ----------------------------------------------------------------------

def shrink_parsers(program: ast.Program, accept: Accept) -> bool:
    """Drop parser states and collapse ``select`` transitions."""

    changed = False
    for parser in program.parsers():
        # States first ("start" must survive: it is the entry point).
        index = 0
        while index < len(parser.states):
            state = parser.states[index]
            if state.name == "start":
                index += 1
                continue
            del parser.states[index]
            if accept(program):
                changed = True
                continue
            parser.states.insert(index, state)
            index += 1
        for state in parser.states:
            changed |= _flatten_select(program, state, accept)
    return changed


def _flatten_select(
    program: ast.Program, state: ast.ParserState, accept: Accept
) -> bool:
    """Replace a ``select`` with a direct transition, or prune its cases."""

    if state.select_expr is None:
        return False
    saved = (state.select_expr, list(state.cases), state.next_state)
    targets: List[str] = []
    for case in saved[1]:
        if case.next_state not in targets:
            targets.append(case.next_state)
    for target in targets:
        state.select_expr = None
        state.cases = []
        state.next_state = target
        if accept(program):
            return True
        state.select_expr, state.cases, state.next_state = (
            saved[0],
            list(saved[1]),
            saved[2],
        )
    return _shrink_plain_list(program, state.cases, accept)


# ----------------------------------------------------------------------
# Expression simplification
# ----------------------------------------------------------------------

def _is_atomic(expr: ast.Expression) -> bool:
    return isinstance(expr, (ast.Constant, ast.BoolLiteral, ast.PathExpression))


def _replacements(expr: ast.Expression) -> Iterator[ast.Expression]:
    """Smaller expressions that could stand in for ``expr``.

    Operand hoisting preserves types most of the time; the literal
    fallbacks rely on the typecheck gate to throw out the wrong-typed one.
    Method calls are never rewritten — ``isValid()``/``apply()`` have
    effects the oracle may depend on; deleting the enclosing statement is
    the only safe shrink for those.
    """

    if isinstance(expr, ast.MethodCallExpression):
        return
    if isinstance(expr, ast.BinaryOp):
        yield expr.left
        yield expr.right
    elif isinstance(expr, ast.UnaryOp):
        yield expr.expr
    elif isinstance(expr, ast.Ternary):
        yield expr.then
        yield expr.orelse
    elif isinstance(expr, (ast.Cast, ast.Slice)):
        yield expr.expr
    yield ast.Constant(0)
    yield ast.BoolLiteral(False)


def _shrink_slot(program: ast.Program, get, put, accept: Accept) -> bool:
    """Repeatedly shrink the expression behind one (get, put) slot."""

    changed = False
    while True:
        expr = get()
        if expr is None or _is_atomic(expr):
            return changed
        for candidate in _replacements(expr):
            put(candidate)
            if accept(program):
                changed = True
                break  # restart from the (smaller) accepted expression
            put(expr)
        else:
            return changed


def _simplify_attr(
    program: ast.Program, holder: ast.Node, attr: str, accept: Accept
) -> bool:
    return _shrink_slot(
        program,
        lambda: getattr(holder, attr),
        lambda expr: setattr(holder, attr, expr),
        accept,
    )


def _simplify_statements(
    program: ast.Program, statements: List[ast.Statement], accept: Accept
) -> bool:
    """Simplify expression slots of a statement list, walking the live tree."""

    changed = False
    for statement in statements:
        if isinstance(statement, ast.AssignmentStatement):
            changed |= _simplify_attr(program, statement, "rhs", accept)
        elif isinstance(statement, ast.IfStatement):
            changed |= _simplify_attr(program, statement, "cond", accept)
            changed |= _simplify_statements(
                program, statement.then_branch.statements, accept
            )
            if statement.else_branch is not None:
                changed |= _simplify_statements(
                    program, statement.else_branch.statements, accept
                )
        elif isinstance(statement, ast.BlockStatement):
            changed |= _simplify_statements(program, statement.statements, accept)
        elif isinstance(statement, ast.VariableDeclaration):
            changed |= _simplify_attr(program, statement, "initializer", accept)
        elif isinstance(statement, ast.ReturnStatement):
            changed |= _simplify_attr(program, statement, "value", accept)
        elif isinstance(statement, ast.MethodCallStatement):
            call = statement.call
            for index in range(len(call.args)):
                changed |= _simplify_index(program, call.args, index, accept)
    return changed


def _simplify_index(
    program: ast.Program, items: List[ast.Expression], index: int, accept: Accept
) -> bool:
    return _shrink_slot(
        program,
        lambda: items[index],
        lambda expr: items.__setitem__(index, expr),
        accept,
    )


def simplify_expressions(program: ast.Program, accept: Accept) -> bool:
    """Shrink expressions everywhere statements or tables hold them."""

    changed = False
    for control in program.controls():
        changed |= _simplify_statements(program, control.apply.statements, accept)
        for local in control.locals:
            if isinstance(local, ast.ActionDeclaration):
                changed |= _simplify_statements(
                    program, local.body.statements, accept
                )
            elif isinstance(local, ast.VariableDeclaration):
                changed |= _simplify_attr(program, local, "initializer", accept)
            elif isinstance(local, ast.TableDeclaration):
                for key in local.keys:
                    changed |= _simplify_attr(program, key, "expr", accept)
    for function in program.functions():
        changed |= _simplify_statements(program, function.body.statements, accept)
    for parser in program.parsers():
        for state in parser.states:
            changed |= _simplify_statements(program, state.statements, accept)
            changed |= _simplify_attr(program, state, "select_expr", accept)
    return changed


# ----------------------------------------------------------------------
# Header shrinking
# ----------------------------------------------------------------------

def shrink_headers(program: ast.Program, accept: Accept) -> bool:
    """Drop fields from header and struct declarations."""

    changed = False
    for declaration in program.declarations:
        if isinstance(declaration, (ast.HeaderDeclaration, ast.StructDeclaration)):
            changed |= _shrink_plain_list(program, declaration.fields, accept)
    return changed


# ----------------------------------------------------------------------
# Register/counter shrinking
# ----------------------------------------------------------------------

def shrink_registers(program: ast.Program, accept: Accept) -> bool:
    """Shrink register and counter bank sizes towards one cell.

    Same smallest-first ladder as :func:`shrink_stacks` (1, then half,
    then size - 1): most stateful triggers only ever touch one cell, so
    the bank usually collapses in a single oracle call.  The oracle behind
    ``accept`` replays the finding's full multi-packet sequence, so an
    aliasing change introduced by the shrink (two indices wrapping onto
    one cell) is kept only when the bug still reproduces across packets.
    Dropping an unused bank entirely is :func:`prune_control_locals`' job.
    """

    changed = False
    for control in program.controls():
        for declaration in control.locals:
            if not isinstance(
                declaration, (ast.RegisterDeclaration, ast.CounterDeclaration)
            ):
                continue
            while declaration.size > 1:
                for new_size in sorted(
                    {1, declaration.size // 2, declaration.size - 1}
                ):
                    if not 1 <= new_size < declaration.size:
                        continue
                    old_size = declaration.size
                    declaration.size = new_size
                    if accept(program):
                        changed = True
                        break
                    declaration.size = old_size
                else:
                    break
    return changed


# ----------------------------------------------------------------------
# Header-stack shrinking
# ----------------------------------------------------------------------

def shrink_stacks(program: ast.Program, accept: Accept) -> bool:
    """Shrink header-stack sizes towards one element.

    Candidate sizes go smallest-first (1, then half, then size - 1), so a
    bug that fits a single element collapses in one oracle call.  Edits
    that leave an out-of-range constant index (or a push/pop the smaller
    capacity can no longer satisfy the typing rules for) are rejected by
    the oracle's typecheck gate; a later statement-deletion round usually
    removes the offending access and lets the shrink land.  Dropping the
    stack field entirely is :func:`shrink_headers`' job.
    """

    changed = False
    for declaration in program.declarations:
        if not isinstance(declaration, ast.StructDeclaration):
            continue
        for index in range(len(declaration.fields)):
            name, field_type = declaration.fields[index]
            if not isinstance(field_type, HeaderStackType):
                continue
            while field_type.size > 1:
                for new_size in sorted({1, field_type.size // 2, field_type.size - 1}):
                    if not 1 <= new_size < field_type.size:
                        continue
                    declaration.fields[index] = (
                        name, HeaderStackType(field_type.element, new_size)
                    )
                    if accept(program):
                        changed = True
                        field_type = declaration.fields[index][1]
                        break
                    declaration.fields[index] = (name, field_type)
                else:
                    break
    return changed


#: The statement-removing pipeline, coarsest edits first: whole
#: declarations, then locals, then statements, then the fine-grained
#: shapes.  Ordering only affects how fast the fixpoint is reached, not
#: where it lands — the round loop in the reducer re-runs the full list
#: until nothing changes.
PRIMARY_TRANSFORMS: Tuple[Callable[[ast.Program, Accept], bool], ...] = (
    prune_declarations,
    prune_control_locals,
    delete_statements,
    shrink_parsers,
    simplify_expressions,
    shrink_stacks,
    shrink_registers,
)

#: Cosmetic shrinkers that almost never remove *statements* (table
#: property lists and header field widths are not counted by
#: :func:`~repro.core.reduce.reducer.program_size`) yet each burn dozens
#: of oracle calls per round.  The reducer holds them back until the
#: primary pipeline reaches its fixpoint, so their budget is spent once
#: per reduction instead of once per round.
POLISH_TRANSFORMS: Tuple[Callable[[ast.Program, Accept], bool], ...] = (
    prune_table_properties,
    shrink_headers,
)
