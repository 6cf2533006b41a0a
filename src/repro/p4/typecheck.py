"""Type checker for the P4-16 subset.

The checker validates the properties the random program generator promises
to uphold (paper §4.2): programs it produces must be well-typed, may only
pass writable l-values for ``out``/``inout`` arguments, and must reference
only declared names.  A program that fails these checks is rejected with a
:class:`TypeCheckError`, which the generator treats as a bug in itself.

The checker is also the component the compiler's ``TypeChecking`` pass wraps,
which is where several of the crash bugs described in the paper live
(e.g. figure 5b/5c).

Two entry points, each run counted as ``typecheck_runs``:

* :func:`check_program` always checks.  The compiler under test calls it
  (the front end's ``TypeChecking`` and ``TypeCheckingPost`` passes), and
  so do the reducer's candidate gate (the candidate has no emitted source
  there; emitting it once more would cost more than the check) and
  :func:`repro.core.levels.classify`.
* :func:`checked_types` memoises the verdict and the resolved
  :class:`~repro.p4.types.TypeEnvironment` by the program's emitted
  source, because a program's types are a function of its source.  Every
  check that knows the source goes through it: the symbolic interpreter
  (validation and test generation), the back ends' concrete interpreters,
  the eBPF back end's stack-usage check and
  :func:`repro.targets.state.packet_layout`.  It keeps no
  :class:`TypeChecker`, which holds its AST, and consumers only read the
  environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.metrics import COUNTERS, MISSING, LruCache, declare
from repro.p4 import ast
from repro.p4.types import (
    BitType,
    BoolType,
    CounterType,
    HeaderStackType,
    HeaderType,
    P4Type,
    RegisterType,
    StructType,
    TypeEnvironment,
    TypeName,
    VoidType,
    composite_field_type,
)

#: Largest supported header-stack size.  The symbolic ``nextIndex`` counter
#: is modelled as ``bit<8>`` and parser extract loops are bounded by the
#: interpreter's unroll budget, so the cap keeps both comfortably in range.
MAX_STACK_SIZE = 16

#: Largest supported register/counter bank.  State is modelled per cell on
#: the symbolic side (one term per cell, no array theory), so the cap keeps
#: the Ite chains for dynamic indices small.
MAX_STATE_SIZE = 16


class TypeCheckError(Exception):
    """Raised when a program violates the subset's typing rules."""


@dataclass
class Scope:
    """A lexical scope mapping variable names to types and writability."""

    parent: Optional["Scope"] = None
    variables: Dict[str, P4Type] = field(default_factory=dict)
    writable: Dict[str, bool] = field(default_factory=dict)

    def declare(self, name: str, var_type: P4Type, writable: bool = True) -> None:
        if name in self.variables:
            raise TypeCheckError(f"duplicate declaration of {name!r}")
        self.variables[name] = var_type
        self.writable[name] = writable

    def lookup(self, name: str) -> Optional[P4Type]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.variables:
                return scope.variables[name]
            scope = scope.parent
        return None

    def is_writable(self, name: str) -> bool:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.variables:
                return scope.writable[name]
            scope = scope.parent
        return False

    def child(self) -> "Scope":
        return Scope(parent=self)


class TypeChecker:
    """Check a whole program; exposes the resolved type environment."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.types = TypeEnvironment()
        self.actions: Dict[str, ast.ActionDeclaration] = {}
        self.functions: Dict[str, ast.FunctionDeclaration] = {}
        self.tables: Dict[str, ast.TableDeclaration] = {}
        #: Which kind of declaration is being checked ("control", "parser"
        #: or "function"): header-stack ``.next``/``.last`` are parser-only,
        #: ``push_front``/``pop_front`` are control-only.
        self._context = "control"

    # -- entry point --------------------------------------------------------

    def check(self) -> None:
        self._collect_types()
        for decl in self.program.declarations:
            if isinstance(decl, ast.FunctionDeclaration):
                self.functions[decl.name] = decl
        for decl in self.program.declarations:
            if isinstance(decl, ast.FunctionDeclaration):
                self._check_function(decl)
            elif isinstance(decl, ast.ControlDeclaration):
                self._check_control(decl)
            elif isinstance(decl, ast.ParserDeclaration):
                self._check_parser(decl)

    # -- type declarations -----------------------------------------------------

    def _collect_types(self) -> None:
        for decl in self.program.declarations:
            if isinstance(decl, ast.HeaderDeclaration):
                fields = tuple((name, self._resolve_bit(field_type)) for name, field_type in decl.fields)
                try:
                    self.types.declare(decl.name, HeaderType(decl.name, fields))
                except ValueError as exc:
                    raise TypeCheckError(str(exc)) from exc
        for decl in self.program.declarations:
            if isinstance(decl, ast.StructDeclaration):
                fields = tuple(
                    (name, self._resolve_struct_field(field_type))
                    for name, field_type in decl.fields
                )
                try:
                    self.types.declare(decl.name, StructType(decl.name, fields))
                except ValueError as exc:
                    raise TypeCheckError(str(exc)) from exc

    def _resolve_struct_field(self, field_type: P4Type) -> P4Type:
        if isinstance(field_type, HeaderStackType):
            element = self._resolve(field_type.element)
            if not isinstance(element, HeaderType):
                raise TypeCheckError(
                    f"header stack elements must be headers, got {element}"
                )
            if field_type.size > MAX_STACK_SIZE:
                raise TypeCheckError(
                    f"header stack size {field_type.size} exceeds the supported "
                    f"maximum of {MAX_STACK_SIZE}"
                )
            return HeaderStackType(element, field_type.size)
        return self._resolve(field_type)

    def _resolve_bit(self, field_type: P4Type) -> BitType:
        resolved = self._resolve(field_type)
        if not isinstance(resolved, BitType):
            raise TypeCheckError("header fields must have type bit<N>")
        return resolved

    def _resolve(self, type_ref: P4Type) -> P4Type:
        try:
            return self.types.resolve(type_ref)
        except KeyError as exc:
            raise TypeCheckError(str(exc)) from exc

    # -- declarations ---------------------------------------------------------------

    def _scope_with_params(self, params: List[ast.Parameter]) -> Scope:
        scope = Scope()
        for param in params:
            resolved = self._resolve(param.param_type)
            scope.declare(param.name, resolved, writable=param.direction != "in")
        return scope

    def _check_function(self, decl: ast.FunctionDeclaration) -> None:
        self._context = "function"
        scope = self._scope_with_params(decl.params)
        return_type = self._resolve(decl.return_type)
        self._check_block(decl.body, scope, return_type=return_type, in_control=False)

    def _check_control(self, decl: ast.ControlDeclaration) -> None:
        self._context = "control"
        scope = self._scope_with_params(decl.params)
        self.actions = {}
        self.tables = {}
        for local in decl.locals:
            if isinstance(local, ast.VariableDeclaration):
                self._check_variable_declaration(local, scope)
            elif isinstance(local, ast.ActionDeclaration):
                if local.name in self.actions:
                    raise TypeCheckError(f"duplicate action {local.name!r}")
                self.actions[local.name] = local
                action_scope = scope.child()
                for param in local.params:
                    action_scope.declare(
                        param.name,
                        self._resolve(param.param_type),
                        writable=param.direction != "in",
                    )
                self._check_block(local.body, action_scope, return_type=VoidType(), in_control=True)
            elif isinstance(local, ast.TableDeclaration):
                self._check_table(local, scope)
            elif isinstance(local, ast.RegisterDeclaration):
                if local.size > MAX_STATE_SIZE:
                    raise TypeCheckError(
                        f"register size {local.size} exceeds the supported "
                        f"maximum of {MAX_STATE_SIZE}"
                    )
                try:
                    register_type = RegisterType(local.width, local.size)
                except ValueError as exc:
                    raise TypeCheckError(str(exc)) from exc
                # Registers are accessed via read/write calls only; marking
                # them read-only rejects plain assignments to the name.
                scope.declare(local.name, register_type, writable=False)
            elif isinstance(local, ast.CounterDeclaration):
                if local.size > MAX_STATE_SIZE:
                    raise TypeCheckError(
                        f"counter size {local.size} exceeds the supported "
                        f"maximum of {MAX_STATE_SIZE}"
                    )
                try:
                    counter_type = CounterType(local.size)
                except ValueError as exc:
                    raise TypeCheckError(str(exc)) from exc
                scope.declare(local.name, counter_type, writable=False)
            else:  # pragma: no cover - defensive
                raise TypeCheckError(f"unexpected control local {type(local).__name__}")
        self._check_block(decl.apply, scope.child(), return_type=VoidType(), in_control=True)

    def _check_table(self, table: ast.TableDeclaration, scope: Scope) -> None:
        if table.name in self.tables:
            raise TypeCheckError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table
        for key in table.keys:
            key_type = self._type_of(key.expr, scope)
            if not isinstance(key_type, (BitType, BoolType)):
                raise TypeCheckError(
                    f"table {table.name!r}: key expressions must be bit or bool, got {key_type}"
                )
            if key.match_kind not in ("exact", "ternary", "lpm"):
                raise TypeCheckError(
                    f"table {table.name!r}: unknown match kind {key.match_kind!r}"
                )
        referenced = list(table.actions)
        if table.default_action is not None:
            referenced.append(table.default_action)
        for ref in referenced:
            if ref.name == "NoAction":
                continue
            action = self.actions.get(ref.name)
            if action is None:
                raise TypeCheckError(
                    f"table {table.name!r} references unknown action {ref.name!r}"
                )
            self._check_call_args(ref.name, action.params, ref.args, scope, allow_partial=True)

    def _check_parser(self, decl: ast.ParserDeclaration) -> None:
        self._context = "parser"
        scope = self._scope_with_params(decl.params)
        state_names = {state.name for state in decl.states} | {"accept", "reject"}
        if decl.states and decl.state("start") is None:
            raise TypeCheckError(f"parser {decl.name!r} has no start state")
        for state in decl.states:
            state_scope = scope.child()
            for statement in state.statements:
                self._check_statement(statement, state_scope, VoidType(), in_control=False)
            if state.select_expr is not None:
                select_type = self._type_of(state.select_expr, state_scope)
                if not isinstance(select_type, (BitType, BoolType)):
                    raise TypeCheckError("select expression must be bit or bool")
                for case in state.cases:
                    if case.next_state not in state_names:
                        raise TypeCheckError(f"unknown state {case.next_state!r}")
                    if case.value is not None:
                        self._type_of(case.value, state_scope)
            elif state.next_state is not None:
                if state.next_state not in state_names:
                    raise TypeCheckError(f"unknown state {state.next_state!r}")

    # -- statements -------------------------------------------------------------------

    def _check_block(
        self, block: ast.BlockStatement, scope: Scope, return_type: P4Type, in_control: bool
    ) -> None:
        block_scope = scope.child()
        for statement in block.statements:
            self._check_statement(statement, block_scope, return_type, in_control)

    def _check_variable_declaration(self, decl: ast.VariableDeclaration, scope: Scope) -> None:
        var_type = self._resolve(decl.var_type)
        if decl.initializer is not None:
            self._require_expr_assignable(
                var_type, decl.initializer, scope, f"initialiser of {decl.name!r}"
            )
        scope.declare(decl.name, var_type)

    def _check_statement(
        self, statement: ast.Statement, scope: Scope, return_type: P4Type, in_control: bool
    ) -> None:
        if isinstance(statement, ast.BlockStatement):
            self._check_block(statement, scope, return_type, in_control)
        elif isinstance(statement, ast.VariableDeclaration):
            self._check_variable_declaration(statement, scope)
        elif isinstance(statement, ast.AssignmentStatement):
            self._check_assignment(statement, scope)
        elif isinstance(statement, ast.IfStatement):
            cond_type = self._type_of(statement.cond, scope)
            if not isinstance(cond_type, BoolType):
                raise TypeCheckError(f"if condition must be bool, got {cond_type}")
            self._check_block(statement.then_branch, scope, return_type, in_control)
            if statement.else_branch is not None:
                self._check_block(statement.else_branch, scope, return_type, in_control)
        elif isinstance(statement, ast.MethodCallStatement):
            self._check_call_statement(statement.call, scope)
        elif isinstance(statement, ast.ReturnStatement):
            if statement.value is None:
                if not isinstance(return_type, VoidType):
                    raise TypeCheckError("non-void function must return a value")
            else:
                self._require_expr_assignable(return_type, statement.value, scope, "return value")
        elif isinstance(statement, (ast.ExitStatement, ast.EmptyStatement)):
            return
        else:  # pragma: no cover - defensive
            raise TypeCheckError(f"unknown statement {type(statement).__name__}")

    def _check_assignment(self, statement: ast.AssignmentStatement, scope: Scope) -> None:
        if not ast.is_lvalue(statement.lhs):
            raise TypeCheckError("assignment target is not an l-value")
        root = ast.lvalue_root(statement.lhs)
        if root is not None and scope.lookup(root) is not None and not scope.is_writable(root):
            raise TypeCheckError(f"cannot assign to read-only value {root!r}")
        lhs_type = self._type_of(statement.lhs, scope)
        if isinstance(lhs_type, HeaderStackType):
            raise TypeCheckError("whole header stacks cannot be assigned")
        self._require_expr_assignable(lhs_type, statement.rhs, scope, "assignment")

    def _check_call_statement(self, call: ast.MethodCallExpression, scope: Scope) -> None:
        target = call.target
        # Built-in header methods and table application.
        if isinstance(target, ast.Member):
            method = target.member
            if method in ("setValid", "setInvalid", "isValid"):
                base_type = self._type_of(target.expr, scope)
                if not isinstance(base_type, HeaderType):
                    raise TypeCheckError(f"{method} requires a header operand")
                if call.args:
                    raise TypeCheckError(f"{method} takes no arguments")
                return
            if method == "apply":
                if isinstance(target.expr, ast.PathExpression) and target.expr.name in self.tables:
                    return
                raise TypeCheckError("apply() may only be invoked on tables")
            if method in ("extract", "emit"):
                if len(call.args) != 1:
                    raise TypeCheckError(f"{method} takes exactly one argument")
                arg = call.args[0]
                if (
                    isinstance(arg, ast.Member)
                    and arg.member == "next"
                    and isinstance(self._type_of(arg.expr, scope), HeaderStackType)
                ):
                    # ``extract(stack.next)`` advances the stack's nextIndex;
                    # like .last it only makes sense while parsing.
                    if self._context != "parser":
                        raise TypeCheckError(
                            f"{method}(stack.next) may only appear inside parsers"
                        )
                    return
                arg_type = self._type_of(arg, scope)
                if not isinstance(arg_type, HeaderType):
                    raise TypeCheckError(f"{method} argument must be a header")
                return
            if method in ("push_front", "pop_front"):
                base_type = self._type_of(target.expr, scope)
                if not isinstance(base_type, HeaderStackType):
                    raise TypeCheckError(f"{method} requires a header-stack operand")
                if self._context != "control":
                    raise TypeCheckError(
                        f"{method} may only be called inside controls"
                    )
                if len(call.args) != 1 or not isinstance(call.args[0], ast.Constant):
                    raise TypeCheckError(
                        f"{method} takes exactly one compile-time constant argument"
                    )
                if call.args[0].value < 0:
                    raise TypeCheckError(f"{method} count must be non-negative")
                return
            if method in ("read", "write", "count"):
                self._check_state_call(method, target, call, scope)
                return
            raise TypeCheckError(f"unknown method {method!r}")
        if isinstance(target, ast.PathExpression):
            callee: Optional[object] = self.actions.get(target.name) or self.functions.get(target.name)
            if callee is None:
                if target.name == "NoAction":
                    return
                raise TypeCheckError(f"call to unknown action or function {target.name!r}")
            self._check_call_args(target.name, callee.params, call.args, scope)
            return
        raise TypeCheckError("unsupported call target")

    def _check_state_call(
        self, method: str, target: ast.Member, call: ast.MethodCallExpression, scope: Scope
    ) -> None:
        """Check ``reg.read(dst, idx)`` / ``reg.write(idx, val)`` / ``cnt.count(idx)``.

        Stateful externs may only be touched from control apply/action
        bodies; indices are either compile-time constants (checked against
        the bank size) or bit-typed l-values (table-key-derived indices,
        bounds-wrapped at runtime by a modulo on the bank size).
        """

        if self._context != "control":
            raise TypeCheckError(f"{method} may only be called inside controls")
        base_type = self._type_of(target.expr, scope)
        if method == "count":
            if not isinstance(base_type, CounterType):
                raise TypeCheckError("count requires a counter operand")
            if len(call.args) != 1:
                raise TypeCheckError("count takes exactly one argument (index)")
            self._check_state_index(method, call.args[0], base_type.size, scope)
            return
        if not isinstance(base_type, RegisterType):
            raise TypeCheckError(f"{method} requires a register operand")
        cell_type = BitType(base_type.width)
        if method == "read":
            if len(call.args) != 2:
                raise TypeCheckError("read takes exactly two arguments (dst, index)")
            dst = call.args[0]
            if not ast.is_lvalue(dst):
                raise TypeCheckError("read destination must be an l-value")
            root = ast.lvalue_root(dst)
            if root is not None and scope.lookup(root) is not None and not scope.is_writable(root):
                raise TypeCheckError("read destination is read-only")
            dst_type = self._type_of(dst, scope)
            if dst_type != cell_type:
                raise TypeCheckError(
                    f"read destination must be {cell_type}, got {dst_type}"
                )
            self._check_state_index(method, call.args[1], base_type.size, scope)
            return
        # write(idx, val)
        if len(call.args) != 2:
            raise TypeCheckError("write takes exactly two arguments (index, value)")
        self._check_state_index(method, call.args[0], base_type.size, scope)
        self._require_expr_assignable(cell_type, call.args[1], scope, "register write value")

    def _check_state_index(
        self, method: str, index: ast.Expression, size: int, scope: Scope
    ) -> None:
        if isinstance(index, ast.Constant):
            if not 0 <= index.value < size:
                raise TypeCheckError(
                    f"{method} index {index.value} out of range for bank of size {size}"
                )
            return
        if not ast.is_lvalue(index):
            raise TypeCheckError(
                f"{method} index must be a constant or a key-derived l-value"
            )
        index_type = self._type_of(index, scope)
        if not isinstance(index_type, BitType):
            raise TypeCheckError(f"{method} index must have a bit type, got {index_type}")

    def _check_call_args(
        self,
        name: str,
        params: List[ast.Parameter],
        args: List[ast.Expression],
        scope: Scope,
        allow_partial: bool = False,
    ) -> None:
        if len(args) > len(params) or (not allow_partial and len(args) != len(params)):
            raise TypeCheckError(
                f"{name!r} expects {len(params)} arguments, got {len(args)}"
            )
        for param, arg in zip(params, args):
            self._require_expr_assignable(
                self._resolve(param.param_type), arg, scope, f"argument {param.name!r}"
            )
            if param.direction in ("out", "inout"):
                if not ast.is_lvalue(arg):
                    raise TypeCheckError(
                        f"argument for {param.direction} parameter {param.name!r} must be an l-value"
                    )
                root = ast.lvalue_root(arg)
                if root is not None and scope.lookup(root) is not None and not scope.is_writable(root):
                    raise TypeCheckError(
                        f"argument for {param.direction} parameter {param.name!r} is read-only"
                    )

    # -- expressions ---------------------------------------------------------------------

    def _type_of(self, expr: ast.Expression, scope: Scope) -> P4Type:
        if isinstance(expr, ast.Constant):
            if expr.width is not None:
                return BitType(expr.width)
            return BitType(32)  # width-less literals default to bit<32> in the subset
        if isinstance(expr, ast.BoolLiteral):
            return BoolType()
        if isinstance(expr, ast.PathExpression):
            found = scope.lookup(expr.name)
            if found is None:
                raise TypeCheckError(f"use of undeclared identifier {expr.name!r}")
            return found
        if isinstance(expr, ast.Member):
            base_type = self._type_of(expr.expr, scope)
            if isinstance(base_type, HeaderStackType):
                return self._type_of_stack_member(base_type, expr.member)
            field_type = composite_field_type(base_type, expr.member)
            if field_type is None:
                raise TypeCheckError(f"type {base_type} has no field {expr.member!r}")
            return self._resolve(field_type)
        if isinstance(expr, ast.ArrayIndex):
            base_type = self._type_of(expr.expr, scope)
            if not isinstance(base_type, HeaderStackType):
                raise TypeCheckError(
                    f"index access requires a header stack, got {base_type}"
                )
            index = expr.index
            if not isinstance(index, ast.Constant):
                raise TypeCheckError("header stack indices must be compile-time constants")
            if not 0 <= index.value < base_type.size:
                raise TypeCheckError(
                    f"stack index {index.value} out of range for {base_type}"
                )
            return self._resolve(base_type.element)
        if isinstance(expr, ast.Slice):
            base_type = self._type_of(expr.expr, scope)
            if not isinstance(base_type, BitType):
                raise TypeCheckError("slices require a bit-vector operand")
            if expr.low < 0 or expr.high < expr.low or expr.high >= base_type.width:
                raise TypeCheckError(
                    f"slice [{expr.high}:{expr.low}] out of range for {base_type}"
                )
            return BitType(expr.high - expr.low + 1)
        if isinstance(expr, ast.UnaryOp):
            operand = self._type_of(expr.expr, scope)
            if expr.op == "!":
                if not isinstance(operand, BoolType):
                    raise TypeCheckError("operator ! requires a bool operand")
                return operand
            if not isinstance(operand, BitType):
                raise TypeCheckError(f"operator {expr.op} requires a bit-vector operand")
            return operand
        if isinstance(expr, ast.BinaryOp):
            return self._type_of_binary(expr, scope)
        if isinstance(expr, ast.Ternary):
            cond = self._type_of(expr.cond, scope)
            if not isinstance(cond, BoolType):
                raise TypeCheckError("ternary condition must be bool")
            then_type = self._type_of(expr.then, scope)
            orelse_type = self._type_of(expr.orelse, scope)
            if self._is_widthless_literal(expr.then) and isinstance(orelse_type, BitType):
                return orelse_type
            if self._is_widthless_literal(expr.orelse) and isinstance(then_type, BitType):
                return then_type
            unified = self._unify(then_type, orelse_type)
            if unified is None:
                raise TypeCheckError("ternary branches have incompatible types")
            return unified
        if isinstance(expr, ast.Cast):
            self._type_of(expr.expr, scope)
            return self._resolve(expr.target)
        if isinstance(expr, ast.MethodCallExpression):
            return self._type_of_call(expr, scope)
        raise TypeCheckError(f"unknown expression {type(expr).__name__}")

    def _type_of_stack_member(self, stack: HeaderStackType, member: str) -> P4Type:
        if member == "next":
            raise TypeCheckError(
                "stack.next may only appear as the argument of extract()"
            )
        if member == "last":
            if self._context != "parser":
                raise TypeCheckError("stack.last may only be read inside parsers")
            return self._resolve(stack.element)
        raise TypeCheckError(f"header stacks have no member {member!r}")

    def _type_of_call(self, call: ast.MethodCallExpression, scope: Scope) -> P4Type:
        target = call.target
        if isinstance(target, ast.Member) and target.member == "isValid":
            base_type = self._type_of(target.expr, scope)
            if not isinstance(base_type, HeaderType):
                raise TypeCheckError("isValid requires a header operand")
            return BoolType()
        if isinstance(target, ast.PathExpression):
            function = self.functions.get(target.name)
            if function is not None:
                self._check_call_args(target.name, function.params, call.args, scope)
                return self._resolve(function.return_type)
        raise TypeCheckError("unsupported call expression")

    def _type_of_binary(self, expr: ast.BinaryOp, scope: Scope) -> P4Type:
        left = self._type_of(expr.left, scope)
        right = self._type_of(expr.right, scope)
        op = expr.op
        if op in ast.BOOLEAN_OPERAND_OPERATORS:
            if not isinstance(left, BoolType) or not isinstance(right, BoolType):
                raise TypeCheckError(f"operator {op} requires bool operands")
            return BoolType()
        if op in ("==", "!="):
            literal_adapts = (
                self._is_widthless_literal(expr.left) and isinstance(right, BitType)
            ) or (self._is_widthless_literal(expr.right) and isinstance(left, BitType))
            if not literal_adapts and self._unify(left, right) is None:
                raise TypeCheckError(f"cannot compare {left} and {right}")
            return BoolType()
        if op in ("<", "<=", ">", ">="):
            if self._unify_bits(left, right, expr) is None:
                raise TypeCheckError(f"operator {op} requires bit-vector operands")
            return BoolType()
        if op == "++":
            if not isinstance(left, BitType) or not isinstance(right, BitType):
                raise TypeCheckError("concatenation requires bit-vector operands")
            return BitType(left.width + right.width)
        if op in ("<<", ">>"):
            if not isinstance(left, BitType):
                raise TypeCheckError("shift requires a bit-vector left operand")
            if not isinstance(right, BitType):
                raise TypeCheckError("shift amount must be a bit vector")
            return left
        unified = self._unify_bits(left, right, expr)
        if unified is None:
            raise TypeCheckError(f"operator {op} requires matching bit-vector operands")
        return unified

    def _unify_bits(
        self, left: P4Type, right: P4Type, expr: ast.BinaryOp
    ) -> Optional[BitType]:
        """Unify two operand types for an arithmetic operator.

        Width-less integer literals adapt to the width of the other operand,
        which mirrors P4-16's treatment of arbitrary-precision literals.
        """

        left_literal = isinstance(expr.left, ast.Constant) and expr.left.width is None
        right_literal = isinstance(expr.right, ast.Constant) and expr.right.width is None
        if isinstance(left, BitType) and isinstance(right, BitType):
            if left.width == right.width:
                return left
            if left_literal:
                return right
            if right_literal:
                return left
            return None
        return None

    def _unify(self, left: P4Type, right: P4Type) -> Optional[P4Type]:
        if left == right:
            return left
        if isinstance(left, BitType) and isinstance(right, BitType):
            return left if left.width == right.width else None
        return None

    @staticmethod
    def _is_widthless_literal(expr: ast.Expression) -> bool:
        return isinstance(expr, ast.Constant) and expr.width is None

    def _require_expr_assignable(
        self, target: P4Type, expr: ast.Expression, scope: Scope, context: str
    ) -> None:
        """Like :meth:`_require_assignable` but adapts width-less literals."""

        if self._is_widthless_literal(expr) and isinstance(self._resolve(target), BitType):
            return
        source = self._type_of(expr, scope)
        self._require_assignable(target, source, context)

    def _require_assignable(self, target: P4Type, source: P4Type, context: str) -> None:
        target = self._resolve(target)
        source = self._resolve(source)
        if isinstance(target, BitType) and isinstance(source, BitType):
            if target.width != source.width:
                raise TypeCheckError(
                    f"{context}: width mismatch ({source} cannot be assigned to {target})"
                )
            return
        if type(target) is type(source):
            if isinstance(target, (HeaderType, StructType)) and target.name != source.name:
                raise TypeCheckError(f"{context}: {source} cannot be assigned to {target}")
            return
        raise TypeCheckError(f"{context}: {source} cannot be assigned to {target}")


declare("typecheck_runs")


def check_program(program: ast.Program) -> TypeChecker:
    """Type check ``program`` and return the populated checker."""

    COUNTERS["typecheck_runs"] += 1
    checker = TypeChecker(program)
    checker.check()
    return checker


#: source -> the resolved types of the program emitted as it, or the
#: message of the :class:`TypeCheckError` it raised.
_TYPES_CACHE = LruCache("typecheck", 1024)


def checked_types(program: ast.Program, source: Optional[str] = None) -> TypeEnvironment:
    """The resolved types of ``program``; raises :class:`TypeCheckError`.

    ``source``, when given, must be the emitted source of ``program``: the
    verdict is then memoised by it, so each distinct source is checked
    once per process.  Without it the program is checked every time.
    """

    if source is None:
        return check_program(program).types
    types = _TYPES_CACHE.get(source)
    if types is MISSING:
        try:
            types = check_program(program).types
        except TypeCheckError as exc:
            types = str(exc)
        _TYPES_CACHE.put(source, types)
    if isinstance(types, str):
        raise TypeCheckError(types)
    return types


def clear_typecheck_cache() -> None:
    """Drop the memoised verdicts (the counters keep growing)."""

    _TYPES_CACHE.clear()
