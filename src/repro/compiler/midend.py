"""Mid-end compiler passes (optimisations).

These mirror the P4C mid-end passes in which the paper found most of its
semantic bugs: constant folding, strength reduction, predication, local copy
propagation, dead-code elimination and control-flow simplification.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.errors import CompilerCrash
from repro.compiler.passes import CompilerPass, PassContext, null_recorder
from repro.compiler.visitor import Transformer, map_controls, replace_items
from repro.p4 import ast
from repro.p4 import registers as register_lowering
from repro.p4 import stacks as stack_lowering
from repro.p4.stacks import NEXT_INDEX_WIDTH
from repro.p4.types import BitType, HeaderStackType, HeaderType


def _mask(width: int) -> int:
    return (1 << width) - 1


def _constant_width(expr: ast.Expression) -> Optional[int]:
    if isinstance(expr, ast.Constant):
        return expr.width
    return None


# ---------------------------------------------------------------------------
# CheckNoFunctionCalls
# ---------------------------------------------------------------------------


class CheckNoFunctionCalls(CompilerPass):
    """Assert that the front end eliminated every helper-function call.

    The mid end and back ends assume functions were inlined; a leftover call
    indicates a defective earlier pass, so it is an internal crash (this is
    how the ``inline_missing_function`` snowball manifests).
    """

    name = "CheckNoFunctionCalls"
    location = "mid_end"

    _BUILTIN_METHODS = {
        "setValid", "setInvalid", "isValid", "apply", "extract", "emit",
        "push_front", "pop_front", "read", "write", "count",
    }

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        table_and_action_names = self._callable_names(program)
        for node in ast.walk(program):
            if not isinstance(node, ast.MethodCallExpression):
                continue
            target = node.target
            if isinstance(target, ast.Member) and target.member in self._BUILTIN_METHODS:
                continue
            if isinstance(target, ast.PathExpression):
                if target.name in table_and_action_names or target.name == "NoAction":
                    continue
                raise CompilerCrash(
                    f"unexpected call to {target.name!r}: all functions should "
                    "have been inlined by the front end",
                    pass_name=self.name,
                    signature="leftover-function-call",
                )
        return program

    @staticmethod
    def _callable_names(program: ast.Program) -> Set[str]:
        names: Set[str] = set()
        for control in program.controls():
            for local in control.locals:
                if isinstance(local, (ast.ActionDeclaration, ast.TableDeclaration)):
                    names.add(local.name)
        return names


# ---------------------------------------------------------------------------
# HeaderStackFlattening
# ---------------------------------------------------------------------------


class HeaderStackFlattening(CompilerPass):
    """Lower header stacks to their constant-indexed scalar elements.

    After this pass no dynamic stack operation remains: ``push_front`` /
    ``pop_front`` become explicit element-by-element moves,
    ``extract(stack.next)`` becomes a constant-indexed validity if-chain
    driven by a scalar ``<stack>_nextIndex`` counter field the pass adds to
    the enclosing struct (initialised to zero at the top of the parser's
    ``start`` state), and ``stack.last.<field>`` reads become ternary
    chains over the elements.  A constant-indexed element behaves exactly
    like a scalar header, which is all the back ends support.

    The statement sequences come from :mod:`repro.p4.stacks` -- the same
    recipes both interpreters execute for the native operations -- so the
    correct pass is semantically invisible to translation validation.

    Seeded defects:

    * ``stack_flatten_next_index_off_by_one`` -- the ``push_front``
      copy-out loop around ``nextIndex`` stops one element short, so the
      top element keeps stale contents (a semantic bug),
    * ``stack_flatten_pop_validity_drop`` -- the ``pop_front`` lowering
      moves field values but not validity bits, so shifted elements keep
      their destination slot's stale validity (a semantic bug).
    """

    name = "HeaderStackFlattening"
    location = "mid_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        stack_fields = _collect_stack_fields(program)
        if not stack_fields:
            return program
        original = program
        program = program.clone()
        structs = {decl.name: decl for decl in program.structs()}
        flattener = _StackFlattener(
            stack_fields=stack_fields,
            structs=structs,
            off_by_one=context.bug_enabled("stack_flatten_next_index_off_by_one"),
            drop_validity=context.bug_enabled("stack_flatten_pop_validity_drop"),
            record=context.rule_recorder(self.name),
        )
        declarations: List[ast.Declaration] = []
        for decl in program.declarations:
            if isinstance(decl, ast.ControlDeclaration):
                declarations.append(flattener.lower_control(decl))
            elif isinstance(decl, ast.ParserDeclaration):
                declarations.append(flattener.lower_parser(decl))
            else:
                declarations.append(decl)
        if not flattener.lowered:
            # Only constant-indexed elements: the clone is the input's twin.
            return original
        return ast.Program(declarations)


def _collect_stack_fields(
    program: ast.Program,
) -> Dict[str, Dict[str, Tuple[Tuple[str, ...], int]]]:
    """``struct name -> {field -> (element field names, size)}``."""

    headers = {decl.name: decl for decl in program.headers()}
    out: Dict[str, Dict[str, Tuple[Tuple[str, ...], int]]] = {}
    for struct in program.structs():
        for field_name, field_type in struct.fields:
            if not isinstance(field_type, HeaderStackType):
                continue
            element = field_type.element
            if isinstance(element, HeaderType):
                names = element.field_names()
            else:
                declared = headers.get(getattr(element, "name", ""))
                if declared is None:
                    continue  # unresolved element: leave for the type checker
                names = tuple(name for name, _ in declared.fields)
            out.setdefault(struct.name, {})[field_name] = (names, field_type.size)
    return out


class _StackFlattener:
    """Per-declaration lowering of stack operations to element statements."""

    def __init__(
        self,
        stack_fields: Dict[str, Dict[str, Tuple[Tuple[str, ...], int]]],
        structs: Dict[str, ast.StructDeclaration],
        off_by_one: bool,
        drop_validity: bool,
        record=null_recorder,
    ) -> None:
        self.stack_fields = stack_fields
        self.structs = structs
        self.off_by_one = off_by_one
        self.drop_validity = drop_validity
        self._record = record
        #: Stack operations lowered so far.
        self.lowered = 0
        #: (struct, field) -> counter field name, for counters already added.
        self._counters: Dict[Tuple[str, str], str] = {}

    def record(self, rule: str) -> None:
        """Count one lowered stack operation and light its rule cell."""

        self.lowered += 1
        self._record(rule)

    # -- struct bookkeeping -------------------------------------------------

    def _param_structs(self, params: List[ast.Parameter]) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for param in params:
            # Works for unresolved TypeName references and already-resolved
            # StructTypes alike: both carry the struct's name.
            name = getattr(param.param_type, "name", None)
            if name in self.stack_fields:
                out[param.name] = name
        return out

    def _stack_info(
        self, expr: ast.Expression, param_structs: Dict[str, str]
    ) -> Optional[Tuple[str, str, Tuple[str, ...], int]]:
        """Resolve ``hdr.hs`` to (struct, field, element fields, size)."""

        if not (
            isinstance(expr, ast.Member)
            and isinstance(expr.expr, ast.PathExpression)
        ):
            return None
        struct_name = param_structs.get(expr.expr.name)
        if struct_name is None:
            return None
        info = self.stack_fields.get(struct_name, {}).get(expr.member)
        if info is None:
            return None
        field_names, size = info
        return struct_name, expr.member, field_names, size

    def _counter_name(self, struct_name: str, field: str) -> str:
        key = (struct_name, field)
        existing = self._counters.get(key)
        if existing is not None:
            return existing
        struct = self.structs[struct_name]
        taken = {name for name, _ in struct.fields}
        name = f"{field}_nextIndex"
        while name in taken:
            name += "_"
        struct.fields.append((name, BitType(NEXT_INDEX_WIDTH)))
        self._counters[key] = name
        return name

    # -- declarations -------------------------------------------------------

    def lower_control(self, control: ast.ControlDeclaration) -> ast.ControlDeclaration:
        param_structs = self._param_structs(control.params)
        if not param_structs:
            return control
        rewriter = _StackStatementRewriter(self, param_structs)
        control.apply = rewriter.transform(control.apply)
        for local in control.locals:
            if isinstance(local, ast.ActionDeclaration):
                local.body = rewriter.transform(local.body)
        return control

    def lower_parser(self, parser: ast.ParserDeclaration) -> ast.ParserDeclaration:
        param_structs = self._param_structs(parser.params)
        if not param_structs:
            return parser
        rewriter = _StackStatementRewriter(self, param_structs)
        for state in parser.states:
            state.statements = [
                out
                for statement in state.statements
                for out in _as_list(rewriter.transform(statement))
            ]
            if state.select_expr is not None:
                state.select_expr = rewriter.transform(state.select_expr)
            for case in state.cases:
                if case.value is not None:
                    case.value = rewriter.transform(case.value)
        # Initialise every counter this parser ended up using on entry.
        # Parsers always enter through ``start``, but ``start`` may also be
        # a loop target -- re-running the init on every iteration would
        # reset the counter mid-parse, and a dedicated init state would
        # shift the unroll budget by one level relative to the unflattened
        # program (a budget asymmetry translation validation would see).
        # Instead the start body is duplicated into a loop copy and every
        # transition back to ``start`` retargets the copy: the init runs
        # exactly once and loop iterations sit at the same unroll depth.
        if rewriter.used_counters:
            start = parser.state("start")
            if start is not None:
                inits = [
                    ast.AssignmentStatement(
                        ast.Member(ast.PathExpression(root), counter),
                        ast.Constant(0, NEXT_INDEX_WIDTH),
                    )
                    for root, counter in sorted(rewriter.used_counters)
                ]
                if self._targets_start(parser):
                    taken = {state.name for state in parser.states}
                    loop_name = "start_loop"
                    while loop_name in taken:
                        loop_name += "_"
                    loop_state = ast.ParserState(
                        loop_name,
                        statements=[stmt.clone() for stmt in start.statements],
                        select_expr=(
                            start.select_expr.clone()
                            if start.select_expr is not None
                            else None
                        ),
                        cases=[case.clone() for case in start.cases],
                        next_state=start.next_state,
                    )
                    parser.states.append(loop_state)
                    for state in parser.states:
                        self._retarget(state, "start", loop_name)
                start.statements[0:0] = inits
        return parser

    @staticmethod
    def _targets_start(parser: ast.ParserDeclaration) -> bool:
        for state in parser.states:
            if state.next_state == "start":
                return True
            if any(case.next_state == "start" for case in state.cases):
                return True
        return False

    @staticmethod
    def _retarget(state: ast.ParserState, old: str, new: str) -> None:
        if state.next_state == old:
            state.next_state = new
        for case in state.cases:
            if case.next_state == old:
                case.next_state = new


def _as_list(transformed) -> List[ast.Statement]:
    if transformed is None:
        return []
    if isinstance(transformed, list):
        return transformed
    return [transformed]


class _StackStatementRewriter(Transformer):
    """Rewrites stack operations inside one control or parser."""

    def __init__(self, flattener: _StackFlattener, param_structs: Dict[str, str]) -> None:
        self.flattener = flattener
        self.param_structs = param_structs
        #: (root param name, counter field) pairs referenced by the rewrite.
        self.used_counters: Set[Tuple[str, str]] = set()

    def _counter_ref(self, stack_expr: ast.Member, struct_name: str, field: str):
        counter = self.flattener._counter_name(struct_name, field)
        root = stack_expr.expr.name  # the struct parameter
        self.used_counters.add((root, counter))
        return ast.Member(ast.PathExpression(root), counter)

    def visit_MethodCallStatement(self, stmt: ast.MethodCallStatement):
        call = stmt.call
        target = call.target
        if isinstance(target, ast.Member):
            # push_front / pop_front on a stack.
            if target.member in ("push_front", "pop_front"):
                info = self.flattener._stack_info(target.expr, self.param_structs)
                if info is not None and call.args and isinstance(call.args[0], ast.Constant):
                    _struct, _field, field_names, size = info
                    count = call.args[0].value
                    if target.member == "push_front":
                        self.flattener.record("push_front")
                        return stack_lowering.lower_push_front(
                            target.expr, field_names, size, count,
                            off_by_one=self.flattener.off_by_one,
                        )
                    self.flattener.record("pop_front")
                    return stack_lowering.lower_pop_front(
                        target.expr, field_names, size, count,
                        drop_validity=self.flattener.drop_validity,
                    )
            # extract(stack.next).
            if target.member == "extract" and call.args:
                arg = call.args[0]
                if isinstance(arg, ast.Member) and arg.member == "next":
                    info = self.flattener._stack_info(arg.expr, self.param_structs)
                    if info is not None:
                        struct_name, field, _field_names, size = info
                        counter = self._counter_ref(arg.expr, struct_name, field)
                        self.flattener.record("extract_next")
                        return stack_lowering.lower_extract_next(
                            arg.expr, counter, size
                        )
        return self.generic_visit(stmt)

    def visit_Member(self, node: ast.Member):
        # stack.last.<field> -> ternary chain over the elements.
        if isinstance(node.expr, ast.Member) and node.expr.member == "last":
            info = self.flattener._stack_info(node.expr.expr, self.param_structs)
            if info is not None:
                struct_name, field, _field_names, size = info
                counter = self._counter_ref(node.expr.expr, struct_name, field)
                self.flattener.record("last_field")
                return stack_lowering.last_field_expr(
                    node.expr.expr, counter, node.member, size
                )
        return self.generic_visit(node)


# ---------------------------------------------------------------------------
# StatefulLowering
# ---------------------------------------------------------------------------


class StatefulLowering(CompilerPass):
    """Lower counter banks onto register banks, counts onto register RMWs.

    Hardware targets implement counters with the same stateful ALU as
    registers, so the mid end rewrites every ``counter(N)`` declaration
    into a ``register<bit<32>>(N)`` bank under the *same name* (state keys
    stay stable across the pass) and splices a read-modify-write sequence
    in place of each ``count`` call.  The statement sequences come from
    :mod:`repro.p4.registers` -- the exact semantics both interpreters give
    the native ``count`` call -- so the correct pass is invisible to
    translation validation by construction.  Plain register ``read`` /
    ``write`` calls pass through unchanged.

    Seeded defects (each one a *stateful* miscompilation no packet-output
    oracle over single fresh-state packets can fully characterise):

    * ``stateful_rmw_lost_update`` -- the lowering caches the RMW scratch
      temporary per bank and block, so every ``count`` after the first
      reuses the first call's stale read: two counts on one cell increment
      it once,
    * ``stateful_read_write_reorder`` -- a "load scheduling" tweak hoists a
      register ``read`` above an immediately preceding ``write`` to the
      same bank, so same-cell read-after-write observes the old value,
    * ``stateful_spill_width_narrow`` -- written values are spilled through
      an 8-bit intermediary, so writes to banks wider than 8 bits lose
      their high bits (invisible on packet outputs until the state is read
      back, possibly packets later).
    """

    name = "StatefulLowering"
    location = "mid_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        has_state = any(
            isinstance(local, (ast.RegisterDeclaration, ast.CounterDeclaration))
            for control in program.controls()
            for local in control.locals
        )
        if not has_state:
            return program
        original = program
        program = program.clone()
        lowerer = _StatefulLowerer(
            context,
            lost_update=context.bug_enabled("stateful_rmw_lost_update"),
            reorder=context.bug_enabled("stateful_read_write_reorder"),
            narrow_spill=context.bug_enabled("stateful_spill_width_narrow"),
        )
        for control in program.controls():
            lowerer.lower_control(control)
        # Registers only, no defect: the clone is the input's twin.
        return program if lowerer.lowered else original


class _StatefulLowerer:
    """Per-control rewriting of counter declarations and state calls."""

    def __init__(
        self,
        context: PassContext,
        lost_update: bool,
        reorder: bool,
        narrow_spill: bool,
    ) -> None:
        self.context = context
        self.lost_update = lost_update
        self.reorder = reorder
        self.narrow_spill = narrow_spill
        self._record = context.rule_recorder("StatefulLowering")
        #: Rewrites made so far.
        self.lowered = 0
        #: bank name -> cell width *after* lowering, for the current control.
        self.widths: Dict[str, int] = {}

    def record(self, rule: str) -> None:
        """Count one rewrite and light its rule cell."""

        self.lowered += 1
        self._record(rule)

    def lower_control(self, control: ast.ControlDeclaration) -> None:
        self.widths = {}
        new_locals: List[ast.Declaration] = []
        for local in control.locals:
            if isinstance(local, ast.CounterDeclaration):
                self.record("counter_to_register")
                new_locals.append(register_lowering.counter_register(local))
                self.widths[local.name] = register_lowering.COUNTER_WIDTH
            else:
                if isinstance(local, ast.RegisterDeclaration):
                    self.widths[local.name] = local.width
                new_locals.append(local)
        if not self.widths:
            return
        control.locals = new_locals
        control.apply = self._lower_block(control.apply)
        for local in control.locals:
            if isinstance(local, ast.ActionDeclaration):
                local.body = self._lower_block(local.body)

    # -- statement rewriting ------------------------------------------------

    def _lower_block(self, block: ast.BlockStatement) -> ast.BlockStatement:
        statements: List[ast.Statement] = []
        #: bank -> first RMW temp of this statement list (lost-update hook).
        temps: Dict[str, str] = {}
        for statement in block.statements:
            statements.extend(self._lower_statement(statement, temps))
        if self.reorder:
            statements = self._reorder(statements)
        return ast.BlockStatement(statements)

    def _lower_statement(
        self, statement: ast.Statement, temps: Dict[str, str]
    ) -> List[ast.Statement]:
        if isinstance(statement, ast.BlockStatement):
            return [self._lower_block(statement)]
        if isinstance(statement, ast.IfStatement):
            statement.then_branch = self._lower_block(statement.then_branch)
            if statement.else_branch is not None:
                statement.else_branch = self._lower_block(statement.else_branch)
            return [statement]
        bank_method = self._state_call(statement)
        if bank_method is None:
            return [statement]
        bank, method = bank_method
        width = self.widths[bank]
        call = statement.call
        if method == "count":
            index = call.args[0]
            cached = temps.get(bank)
            if self.lost_update and cached is not None:
                # Seeded defect: reuse the first count's stale temporary
                # instead of re-reading the cell.
                self.record("count_rmw_cached")
                lowered = register_lowering.lower_count(
                    bank, index, cached, emit_read=False
                )
            else:
                self.record("count_rmw")
                temp = self.context.fresh_name(f"{bank}_rmw")
                temps.setdefault(bank, temp)
                lowered = register_lowering.lower_count(bank, index, temp)
            return [self._narrow_write(out, width) for out in lowered]
        if method == "write":
            return [self._narrow_write(statement, width)]
        return [statement]  # read: identity

    def _narrow_write(self, statement: ast.Statement, width: int) -> ast.Statement:
        """Apply the seeded spill-narrowing defect to one write statement."""

        if not self.narrow_spill or width <= 8:
            return statement
        if self._state_call(statement) is None or statement.call.target.member != "write":
            return statement
        self.record("narrow_spill")
        statement.call.args[1] = register_lowering.narrowed_value(
            statement.call.args[1], width
        )
        return statement

    def _state_call(
        self, statement: ast.Statement
    ) -> Optional[Tuple[str, str]]:
        """``(bank, method)`` when the statement is a state call on a bank."""

        if not isinstance(statement, ast.MethodCallStatement):
            return None
        target = statement.call.target
        if (
            isinstance(target, ast.Member)
            and isinstance(target.expr, ast.PathExpression)
            and target.expr.name in self.widths
            and target.member in ("read", "write", "count")
        ):
            return target.expr.name, target.member
        return None

    def _reorder(self, statements: List[ast.Statement]) -> List[ast.Statement]:
        """Seeded defect: hoist a read above the write right before it."""

        out = list(statements)
        index = 0
        while index + 1 < len(out):
            first = self._state_call(out[index])
            second = self._state_call(out[index + 1])
            if (
                first is not None
                and second is not None
                and first[1] == "write"
                and second[1] == "read"
                and first[0] == second[0]
            ):
                self.record("read_write_swap")
                out[index], out[index + 1] = out[index + 1], out[index]
                index += 2
                continue
            index += 1
        return out


# ---------------------------------------------------------------------------
# ConstantFolding
# ---------------------------------------------------------------------------


class ConstantFolding(CompilerPass):
    """Fold arithmetic/logical expressions whose operands are literals.

    Seeded defect ``constant_folding_no_mask``: subtraction is folded without
    modular wrap-around, so ``8w1 - 8w2`` becomes ``0`` instead of ``255``.
    """

    name = "ConstantFolding"
    location = "mid_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        folder = _ConstantFolder(
            context.bug_enabled("constant_folding_no_mask"),
            record=context.rule_recorder(self.name),
        )
        return folder.transform_program(program)


class _ConstantFolder(Transformer):
    def __init__(self, underflow_bug: bool, record=null_recorder) -> None:
        self.underflow_bug = underflow_bug
        self.record = record

    def visit_BinaryOp(self, node: ast.BinaryOp) -> ast.Expression:
        node = self.generic_visit(node)
        left, right = node.left, node.right
        if not isinstance(left, ast.Constant) or not isinstance(right, ast.Constant):
            return node
        width = left.width or right.width
        if node.op in ("&&", "||"):
            return node
        if node.op == "++":
            if left.width is None or right.width is None:
                return node
            value = (left.value << right.width) | right.value
            self.record("fold_concat")
            return ast.Constant(value, left.width + right.width)
        value = self._fold(node.op, left.value, right.value, width)
        if value is None:
            return node
        if isinstance(value, bool):
            self.record("fold_comparison")
            return ast.BoolLiteral(value)
        if width is not None:
            value &= _mask(width)
        self.record("fold_binop")
        return ast.Constant(value, width)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.Expression:
        node = self.generic_visit(node)
        operand = node.expr
        if isinstance(operand, ast.Constant) and operand.width is not None:
            if node.op == "~":
                self.record("fold_unary")
                return ast.Constant((~operand.value) & _mask(operand.width), operand.width)
            if node.op == "-":
                self.record("fold_unary")
                return ast.Constant((-operand.value) & _mask(operand.width), operand.width)
        if isinstance(operand, ast.BoolLiteral) and node.op == "!":
            self.record("fold_unary")
            return ast.BoolLiteral(not operand.value)
        return node

    def visit_Ternary(self, node: ast.Ternary) -> ast.Expression:
        node = self.generic_visit(node)
        if isinstance(node.cond, ast.BoolLiteral):
            self.record("fold_ternary")
            return node.then if node.cond.value else node.orelse
        return node

    def _fold(self, op: str, left: int, right: int, width: Optional[int]):
        if op == "+":
            return left + right
        if op == "-":
            if self.underflow_bug:
                # Seeded defect: clamp at zero instead of wrapping.
                return max(0, left - right)
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left // right if right != 0 else None
        if op == "%":
            return left % right if right != 0 else None
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            if width is not None and right >= width:
                return 0
            return left << right
        if op == ">>":
            return left >> right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        return None


# ---------------------------------------------------------------------------
# StrengthReduction
# ---------------------------------------------------------------------------


class StrengthReduction(CompilerPass):
    """Replace expensive operators with cheaper equivalents.

    Seeded defects:

    * ``strength_reduction_shift_semantics`` -- ``x * 2^k`` becomes
      ``x << (k + 1)``,
    * ``strength_reduction_negative_slice`` -- rewriting a shift by a
      constant larger than the operand width computes a negative slice
      index and fails an internal check (figure 5c).
    """

    name = "StrengthReduction"
    location = "mid_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        reducer = _StrengthReducer(
            off_by_one=context.bug_enabled("strength_reduction_shift_semantics"),
            negative_slice=context.bug_enabled("strength_reduction_negative_slice"),
            name_widths=_collect_name_widths(program),
            record=context.rule_recorder(self.name),
        )
        return reducer.transform_program(program)


def _collect_name_widths(program: ast.Program) -> Dict[str, Optional[int]]:
    """Bit widths of header fields and locals, by (unqualified) name.

    The zero-fold needs the width of arbitrary operands, but mid-end passes
    work without a type environment; names declared with conflicting widths
    map to ``None`` (unknown), so the lookup never guesses wrong -- it only
    refuses to pin a width down.
    """

    widths: Dict[str, Optional[int]] = {}

    def record(name: str, width: int) -> None:
        if name in widths and widths[name] != width:
            widths[name] = None
        else:
            widths.setdefault(name, width)

    for header in program.headers():
        for field_name, field_type in header.fields:
            if isinstance(field_type, BitType):
                record(field_name, field_type.width)
    for node in ast.walk_statements(program):
        if isinstance(node, ast.VariableDeclaration) and isinstance(
            node.var_type, BitType
        ):
            record(node.name, node.var_type.width)
    return widths


def _log2_exact(value: int) -> Optional[int]:
    if value <= 0 or value & (value - 1):
        return None
    return value.bit_length() - 1


class _StrengthReducer(Transformer):
    def __init__(
        self,
        off_by_one: bool,
        negative_slice: bool,
        name_widths: Optional[Dict[str, Optional[int]]] = None,
        record=null_recorder,
    ) -> None:
        self.off_by_one = off_by_one
        self.negative_slice = negative_slice
        self.name_widths = name_widths or {}
        self.record = record

    def visit_BinaryOp(self, node: ast.BinaryOp) -> ast.Expression:
        node = self.generic_visit(node)
        left, right = node.left, node.right

        if self.negative_slice and node.op in ("<<", ">>"):
            if isinstance(right, ast.Constant):
                # The operand width is taken from the left operand when known
                # and otherwise from the amount literal itself (P4 shifts are
                # homogeneous in the programs the generator produces).
                width = (
                    _constant_width(left)
                    or self._expr_width_hint(left)
                    or right.width
                )
                if width is not None and right.value >= width:
                    # The defective rewrite computes slice bounds
                    # [width - amount - 1 : 0], which is negative here.
                    self.record("negative_slice_crash")
                    raise CompilerCrash(
                        f"slice index {width - right.value - 1} is negative",
                        pass_name="StrengthReduction",
                        signature="negative-slice-index",
                    )

        if node.op == "*" and isinstance(right, ast.Constant) and right.width is not None:
            power = _log2_exact(right.value)
            if power is not None and power > 0:
                shift = power + 1 if self.off_by_one else power
                self.record("mul_to_shift")
                return ast.BinaryOp("<<", left, ast.Constant(shift, right.width))
        if node.op == "*" and isinstance(left, ast.Constant) and left.width is not None:
            power = _log2_exact(left.value)
            if power is not None and power > 0:
                shift = power + 1 if self.off_by_one else power
                self.record("mul_to_shift")
                return ast.BinaryOp("<<", right, ast.Constant(shift, left.width))

        # Identity simplifications.
        if node.op in ("+", "-", "|", "^", "<<", ">>") and self._is_zero(right):
            self.record("identity_zero")
            return left
        if node.op in ("+", "|", "^") and self._is_zero(left):
            self.record("identity_zero")
            return right
        if node.op == "*" and (self._is_zero(left) or self._is_zero(right)):
            self.record("mul_zero")
            return ast.Constant(0, self._zero_fold_width(left, right))
        if node.op == "*" and self._is_one(right):
            self.record("mul_one")
            return left
        if node.op == "*" and self._is_one(left):
            self.record("mul_one")
            return right
        if node.op == "/" and self._is_one(right):
            self.record("div_one")
            return left
        if node.op == "&" and (self._is_zero(left) or self._is_zero(right)):
            self.record("and_zero")
            return ast.Constant(0, self._zero_fold_width(left, right))
        return node

    def _zero_fold_width(
        self, left: ast.Expression, right: ast.Expression
    ) -> Optional[int]:
        """Width of the constant replacing ``x * 0`` / ``x & 0``.

        The width used to come from the zero literal alone: a width-less
        zero next to a typed operand then produced a width-less constant,
        which downstream consumers re-infer as ``bit<32>`` -- changing the
        width of any enclosing concatenation or comparison.  Prefer either
        operand's known width and only stay width-less when neither side
        pins one down.
        """

        zero, other = (left, right) if self._is_zero(left) else (right, left)
        return _constant_width(zero) or self._operand_width(other)

    def _operand_width(self, expr: ast.Expression) -> Optional[int]:
        """Best-effort operand width for the zero-fold.

        Extends the structural :meth:`_expr_width_hint` (which the seeded
        negative-slice defect also uses and therefore must not change) with
        declaration-derived widths of header fields and locals.
        """

        hint = self._expr_width_hint(expr)
        if hint is not None:
            return hint
        if isinstance(expr, ast.Member):
            return self.name_widths.get(expr.member)
        if isinstance(expr, ast.PathExpression):
            return self.name_widths.get(expr.name)
        if isinstance(expr, ast.Cast) and isinstance(expr.target, BitType):
            return expr.target.width
        return None

    @staticmethod
    def _is_zero(expr: ast.Expression) -> bool:
        return isinstance(expr, ast.Constant) and expr.value == 0

    @staticmethod
    def _is_one(expr: ast.Expression) -> bool:
        return isinstance(expr, ast.Constant) and expr.value == 1

    @staticmethod
    def _expr_width_hint(expr: ast.Expression) -> Optional[int]:
        if isinstance(expr, ast.Constant):
            return expr.width
        if isinstance(expr, ast.Slice):
            return expr.high - expr.low + 1
        return None


# ---------------------------------------------------------------------------
# Predication
# ---------------------------------------------------------------------------


class Predication(CompilerPass):
    """Convert if statements inside action bodies into predicated assignments.

    Hardware targets cannot branch inside actions, so p4c rewrites

    ``if (c) { x = e; }``   into   ``x = c ? e : x;``

    Seeded defects:

    * ``predication_nested_else_lost`` -- assignments in the else branch of a
      nested if are dropped,
    * ``midend_emit_missing_parens`` -- the rewrite introduces a temporary
      whose name is not a valid identifier, so the emitted program no longer
      parses (an "invalid transformation").
    """

    name = "Predication"
    location = "mid_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        return map_controls(program, lambda control: self._predicate_control(control, context))

    def _predicate_control(
        self, control: ast.ControlDeclaration, context: PassContext
    ) -> ast.ControlDeclaration:
        locals_: List[ast.Declaration] = []
        for local in control.locals:
            if isinstance(local, ast.ActionDeclaration):
                body = self._predicate_block(local.body, context)
                if body is not local.body:
                    local = dataclasses.replace(local, body=body)
            locals_.append(local)
        return replace_items(control, "locals", locals_)

    def _predicate_block(
        self, block: ast.BlockStatement, context: PassContext
    ) -> ast.BlockStatement:
        statements: List[ast.Statement] = []
        for statement in block.statements:
            if isinstance(statement, ast.IfStatement) and self._only_assignments(statement):
                statements.extend(self._predicate_if(statement, context))
            else:
                statements.append(statement)
        return replace_items(block, "statements", statements)

    def _only_assignments(self, statement: ast.IfStatement) -> bool:
        for node in ast.walk_statements(statement):
            if isinstance(node, ast.Statement) and not isinstance(
                node,
                (
                    ast.IfStatement,
                    ast.BlockStatement,
                    ast.AssignmentStatement,
                    ast.EmptyStatement,
                ),
            ):
                return False
        return True

    def _predicate_if(
        self, statement: ast.IfStatement, context: PassContext
    ) -> List[ast.Statement]:
        drop_nested_else = context.bug_enabled("predication_nested_else_lost")
        bad_name = context.bug_enabled("midend_emit_missing_parens")
        record = context.rule_recorder(self.name)
        record("predicate_if")
        out: List[ast.Statement] = []

        cond_name = context.fresh_name("pred")
        if bad_name:
            # Seeded defect: the generated temporary is not a legal identifier,
            # so the emitted program cannot be reparsed.
            cond_name = f"pred cond{cond_name[-1]}"
        out.append(ast.VariableDeclaration(cond_name, _bool_type(), statement.cond))
        cond_ref = ast.PathExpression(cond_name)

        def emit_assignments(
            node: ast.Statement, condition: ast.Expression, nested: bool
        ) -> None:
            if isinstance(node, ast.BlockStatement):
                for child in node.statements:
                    emit_assignments(child, condition, nested)
                return
            if isinstance(node, ast.AssignmentStatement):
                record("predicated_assign")
                out.append(
                    ast.AssignmentStatement(
                        node.lhs.clone(),
                        ast.Ternary(condition.clone(), node.rhs.clone(), node.lhs.clone()),
                    )
                )
                return
            if isinstance(node, ast.IfStatement):
                record("nested_if_hoist")
                # Hoist the nested condition into a temporary *at this
                # sequence point*: the predicated assignments emitted for
                # earlier statements may write variables the condition
                # reads, so re-evaluating it inline (in the guard of every
                # nested assignment) would observe the wrong values.
                nested_name = context.fresh_name("pred")
                out.append(
                    ast.VariableDeclaration(nested_name, _bool_type(), node.cond.clone())
                )
                nested_ref = ast.PathExpression(nested_name)
                nested_cond = ast.BinaryOp("&&", condition.clone(), nested_ref)
                emit_assignments(node.then_branch, nested_cond, nested=True)
                if node.else_branch is not None:
                    if drop_nested_else:
                        return  # seeded defect: nested else assignments vanish
                    negated = ast.BinaryOp(
                        "&&", condition.clone(), ast.UnaryOp("!", nested_ref.clone())
                    )
                    emit_assignments(node.else_branch, negated, nested=True)
                return
            if isinstance(node, ast.EmptyStatement):
                return
            raise AssertionError("predication saw an unexpected statement")

        emit_assignments(statement.then_branch, cond_ref, nested=False)
        if statement.else_branch is not None:
            negated = ast.UnaryOp("!", cond_ref.clone())
            if drop_nested_else and _contains_if(statement.else_branch):
                record("else_dropped")  # seeded defect: the else branch vanishes
            else:
                record("else_predicated")
                emit_assignments(statement.else_branch, negated, nested=False)
        return out


def _contains_if(node: ast.Node) -> bool:
    return any(isinstance(sub, ast.IfStatement) for sub in ast.walk_statements(node))


def _bool_type():
    from repro.p4.types import BoolType

    return BoolType()


# ---------------------------------------------------------------------------
# LocalCopyPropagation
# ---------------------------------------------------------------------------


class LocalCopyPropagation(CompilerPass):
    """Propagate constants assigned to locals and header fields.

    Propagation is limited to straight-line code: any branch, table apply or
    action call invalidates all facts.  The correct implementation also kills
    facts about a header's fields when the header's validity changes; the
    seeded ``copy_prop_across_invalid`` defect does not (figure 5e).
    """

    name = "LocalCopyPropagation"
    location = "mid_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        propagate_across_validity = context.bug_enabled("copy_prop_across_invalid")
        record = context.rule_recorder(self.name)

        def propagate(control: ast.ControlDeclaration) -> ast.ControlDeclaration:
            apply = _propagate_block(control.apply, propagate_across_validity, record)
            if apply is control.apply:
                return control
            return dataclasses.replace(control, apply=apply)

        return map_controls(program, propagate)


def _propagate_block(
    block: ast.BlockStatement, across_validity: bool, record=null_recorder
) -> ast.BlockStatement:
    facts: Dict[str, ast.Expression] = {}
    statements: List[ast.Statement] = []
    #: Header paths (e.g. ``hdr.h``) *known to be valid* at the current
    #: point: a top-level ``setValid()`` was seen and nothing since could
    #: have changed the validity.  The correct pass only learns facts about
    #: a header's fields while the header is known valid -- a write to a
    #: field of a possibly-invalid header is a no-op and a read yields an
    #: undefined value, so propagating the written constant would be
    #: unsound.  (Validity is unknown at block entry: it is a symbolic
    #: input.)  The seeded ``copy_prop_across_invalid`` defect skips every
    #: validity consideration.
    known_valid: Set[str] = set()

    substitute_facts = _FactSubstituter(facts, record).transform

    def kill_root(root: Optional[str]) -> None:
        if root is None:
            facts.clear()
            return
        for key in list(facts):
            if key == root or key.startswith(f"{root}."):
                del facts[key]
        # Facts whose value mentions the root are stale too.
        for key, value in list(facts.items()):
            if any(
                isinstance(node, ast.PathExpression) and node.name == root
                for node in ast.walk(value)
            ):
                del facts[key]

    def may_learn(lhs: ast.Expression) -> bool:
        if isinstance(lhs, ast.PathExpression):
            return True  # locals have no validity bit
        if isinstance(lhs, ast.Member):
            if across_validity:
                return True  # seeded defect: ignore validity entirely
            return str(lhs.expr) in known_valid
        return False

    for statement in block.statements:
        if isinstance(statement, ast.AssignmentStatement):
            rhs = substitute_facts(statement.rhs)
            if rhs is not statement.rhs:
                statement = ast.AssignmentStatement(statement.lhs, rhs)
            statements.append(statement)
            kill_root(ast.lvalue_root(statement.lhs))
            if isinstance(rhs, ast.Constant) and may_learn(statement.lhs):
                record("learn_fact")
                facts[str(statement.lhs)] = rhs
        elif isinstance(statement, ast.VariableDeclaration):
            initializer = (
                substitute_facts(statement.initializer)
                if statement.initializer is not None
                else None
            )
            if initializer is not statement.initializer:
                statement = ast.VariableDeclaration(
                    statement.name, statement.var_type, initializer
                )
            statements.append(statement)
            if isinstance(initializer, ast.Constant):
                record("learn_fact")
                facts[statement.name] = initializer
        elif isinstance(statement, ast.MethodCallStatement):
            call = statement.call
            statements.append(statement)
            if isinstance(call.target, ast.Member) and call.target.member in (
                "setValid",
                "setInvalid",
            ):
                header = str(call.target.expr)
                if not across_validity:
                    kill_root(ast.lvalue_root(call.target.expr))
                    if call.target.member == "setValid":
                        known_valid.add(header)
                    else:
                        known_valid.discard(header)
            else:
                # Table applies / action calls can write fields and toggle
                # validity of any header.
                facts.clear()
                known_valid.clear()
        else:
            # Branches and anything else end the straight-line window; they
            # may also contain validity toggles, so validity knowledge is
            # conservatively discarded too.
            statements.append(statement)
            facts.clear()
            known_valid.clear()
    return replace_items(block, "statements", statements)


class _FactSubstituter(Transformer):
    """Replace the locals and header fields ``facts`` knows by their constants."""

    def __init__(self, facts: Dict[str, ast.Expression], record) -> None:
        self.facts = facts
        self.record = record

    def visit_PathExpression(self, node: ast.PathExpression):
        fact = self.facts.get(node.name)
        if fact is not None:
            self.record("substitute_local")
            return fact.clone()
        return node

    def visit_Member(self, node: ast.Member):
        fact = self.facts.get(str(node))
        if fact is not None:
            self.record("substitute_field")
            return fact.clone()
        return self.generic_visit(node)

    def visit_MethodCallExpression(self, node: ast.MethodCallExpression):
        # Never rewrite the callee of isValid()/apply() etc.
        return node


# ---------------------------------------------------------------------------
# DeadCodeElimination
# ---------------------------------------------------------------------------


class DeadCodeElimination(CompilerPass):
    """Remove unreachable statements and branches with constant conditions.

    The seeded ``dead_code_removes_validity_call`` defect also removes
    ``setValid()``/``setInvalid()`` statements from conditional branches,
    wrongly assuming header validity updates have no observable effect.
    """

    name = "DeadCodeElimination"
    location = "mid_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        eliminator = _DeadCodeEliminator(
            drop_validity_calls=context.bug_enabled("dead_code_removes_validity_call"),
            record=context.rule_recorder(self.name),
        )
        return eliminator.transform_program(program)


class _DeadCodeEliminator(Transformer):
    def __init__(self, drop_validity_calls: bool, record=null_recorder) -> None:
        self.drop_validity_calls = drop_validity_calls
        self.record = record

    def visit_BlockStatement(self, block: ast.BlockStatement) -> ast.BlockStatement:
        statements: List[ast.Statement] = []
        for position, statement in enumerate(block.statements):
            transformed = self.transform(statement)
            if transformed is None:
                continue
            if isinstance(transformed, list):
                statements.extend(transformed)
            else:
                statements.append(transformed)
            # Everything after a statement that always terminates the block
            # is dead.  A constant-condition if that collapsed into its
            # branch block ends the enclosing block too when that branch
            # ends in exit/return -- the historical check only looked for a
            # literal exit/return node and let the trailing statements
            # survive into the back ends.
            if statements and self._terminates(statements[-1]):
                if position + 1 < len(block.statements):
                    self.record("dead_tail")
                break
        return replace_items(block, "statements", statements)

    @classmethod
    def _terminates(cls, statement: ast.Statement) -> bool:
        if isinstance(statement, (ast.ExitStatement, ast.ReturnStatement)):
            return True
        if isinstance(statement, ast.BlockStatement) and statement.statements:
            return cls._terminates(statement.statements[-1])
        return False

    def visit_EmptyStatement(self, statement: ast.EmptyStatement):
        self.record("drop_empty_statement")
        return None

    def visit_MethodCallStatement(self, statement: ast.MethodCallStatement):
        return statement

    def visit_IfStatement(self, statement: ast.IfStatement):
        cond = statement.cond
        then_branch = self.visit_BlockStatement(statement.then_branch)
        else_branch = (
            self.visit_BlockStatement(statement.else_branch)
            if statement.else_branch is not None
            else None
        )
        if self.drop_validity_calls:
            stripped = self._strip_validity_calls(then_branch)
            if len(stripped.statements) != len(then_branch.statements):
                self.record("strip_validity")
            then_branch = stripped
            if else_branch is not None:
                stripped = self._strip_validity_calls(else_branch)
                if len(stripped.statements) != len(else_branch.statements):
                    self.record("strip_validity")
                else_branch = stripped
        if isinstance(cond, ast.BoolLiteral):
            self.record("collapse_constant_if")
            return then_branch if cond.value else (else_branch or None)
        if not then_branch.statements and (else_branch is None or not else_branch.statements):
            self.record("drop_empty_if")
            return None
        if else_branch is not None and not else_branch.statements:
            else_branch = None
        return _rebuilt_if(statement, cond, then_branch, else_branch)

    @staticmethod
    def _strip_validity_calls(block: ast.BlockStatement) -> ast.BlockStatement:
        statements = [
            statement
            for statement in block.statements
            if not (
                isinstance(statement, ast.MethodCallStatement)
                and isinstance(statement.call.target, ast.Member)
                and statement.call.target.member in ("setValid", "setInvalid")
            )
        ]
        return replace_items(block, "statements", statements)


def _rebuilt_if(
    statement: ast.IfStatement,
    cond: ast.Expression,
    then_branch: ast.BlockStatement,
    else_branch: Optional[ast.BlockStatement],
) -> ast.IfStatement:
    """``statement`` itself when every part is the same object, else a new if."""

    if (
        cond is statement.cond
        and then_branch is statement.then_branch
        and else_branch is statement.else_branch
    ):
        return statement
    return ast.IfStatement(cond, then_branch, else_branch)


# ---------------------------------------------------------------------------
# SimplifyControlFlow
# ---------------------------------------------------------------------------


class SimplifyControlFlow(CompilerPass):
    """Flatten nested blocks and drop degenerate if statements.

    The seeded ``simplify_control_flow_empty_if`` defect removes an if
    statement entirely when its then branch is empty, losing the else branch.
    """

    name = "SimplifyControlFlow"
    location = "mid_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        simplifier = _ControlFlowSimplifier(
            drop_else_with_empty_then=context.bug_enabled("simplify_control_flow_empty_if"),
            record=context.rule_recorder(self.name),
        )
        return simplifier.transform_program(program)


class _ControlFlowSimplifier(Transformer):
    def __init__(self, drop_else_with_empty_then: bool, record=null_recorder) -> None:
        self.drop_else_with_empty_then = drop_else_with_empty_then
        self.record = record

    def visit_BlockStatement(self, block: ast.BlockStatement) -> ast.BlockStatement:
        statements: List[ast.Statement] = []
        for statement in block.statements:
            transformed = self.transform(statement)
            if transformed is None:
                continue
            if isinstance(transformed, ast.BlockStatement) and not any(
                isinstance(node, ast.VariableDeclaration)
                for node in transformed.statements
            ):
                # Inline nested blocks that do not declare anything.
                self.record("inline_block")
                statements.extend(transformed.statements)
            elif isinstance(transformed, list):
                statements.extend(transformed)
            else:
                statements.append(transformed)
        return replace_items(block, "statements", statements)

    def visit_EmptyStatement(self, statement: ast.EmptyStatement):
        self.record("drop_empty_statement")
        return None

    def visit_IfStatement(self, statement: ast.IfStatement):
        then_branch = self._transform_branch(statement.then_branch)
        else_branch = (
            self._transform_branch(statement.else_branch)
            if statement.else_branch is not None
            else None
        )
        if not then_branch.statements:
            if self.drop_else_with_empty_then:
                self.record("empty_then_dropped")
                return None  # seeded defect: else branch is lost
            if else_branch is None or not else_branch.statements:
                self.record("drop_empty_if")
                return None
            self.record("negate_empty_then")
            return ast.IfStatement(
                ast.UnaryOp("!", statement.cond), else_branch, None
            )
        if else_branch is not None and not else_branch.statements:
            else_branch = None
        return _rebuilt_if(statement, statement.cond, then_branch, else_branch)

    def _transform_branch(self, block: ast.BlockStatement) -> ast.BlockStatement:
        transformed = self.transform(block)
        if isinstance(transformed, ast.BlockStatement):
            return transformed
        return ast.BlockStatement([transformed])


#: The default mid-end pipeline, in execution order.  Stacks flatten first
#: so every later optimisation sees only scalar-header element accesses;
#: counters lower onto registers right after, so the rest of the mid end
#: sees only one stateful primitive.
MIDEND_PASSES = (
    CheckNoFunctionCalls,
    HeaderStackFlattening,
    StatefulLowering,
    ConstantFolding,
    StrengthReduction,
    Predication,
    LocalCopyPropagation,
    DeadCodeElimination,
    SimplifyControlFlow,
)
