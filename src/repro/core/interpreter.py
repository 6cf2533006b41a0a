"""Symbolic interpreter: convert P4 programmable blocks into SMT formulas.

This is the reproduction of §5.2 of the paper.  Every programmable block
(each control, and the parser) is turned into a functional form: a mapping
from symbolic inputs (the ``inout``/``in`` parameters, symbolic table keys,
action choices and action data) to symbolic outputs (the ``inout``/``out``
parameters after the block runs).

Key modelling decisions (shared with :mod:`repro.targets.execution` so the
oracle and the targets agree on defined behaviour):

* **Tables** are interpreted fully symbolically (figure 3): one symbolic key
  per key expression, one symbolic action selector per table, and one
  symbolic argument per action data parameter.
* **Header validity** is a symbolic Boolean per header instance.  Reading a
  field of an invalid header yields a *deterministic* undefined symbol
  (``undef_<path>``), writing a field of an invalid header is a no-op, and
  ``setValid``/``setInvalid`` only toggle the validity bit.  Deterministic
  undefined symbols keep translation validation free of false alarms when a
  pass merely reorders undefined reads.
* **exit/return** are modelled by guarding every write with an "active"
  condition, so the interpreter produces a single merged formula per output
  instead of enumerating paths (the path view needed for test generation is
  recorded separately as branch decisions).
* **Copy-in/copy-out** is applied to function and action calls exactly as
  the specification demands; this is where many of p4c's historical bugs
  lived, so the oracle must get it right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import smt
from repro.p4 import ast
from repro.p4 import stacks as stack_lowering
from repro.p4.registers import COUNTER_WIDTH, STATE_INDEX_WIDTH
from repro.p4.stacks import NEXT_INDEX_WIDTH
from repro.p4.typecheck import TypeCheckError, check_program
from repro.p4.types import (
    BitType,
    BoolType,
    HeaderStackType,
    HeaderType,
    P4Type,
    StructType,
)
from repro.smt.terms import Term


class InterpreterError(Exception):
    """Raised when the interpreter cannot model a program construct."""


@dataclass
class TableInfo:
    """Metadata about one symbolic table application (used by testgen)."""

    table: str
    key_symbols: List[str]
    key_widths: List[int]
    action_symbol: str
    #: Action names in selection order; index ``i + 1`` selects ``actions[i]``.
    actions: List[str]
    default_action: str
    #: Per action: list of (symbol name, width) for its data parameters.
    action_args: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)


@dataclass
class BlockSemantics:
    """The functional form of one programmable block."""

    block: str
    #: Output terms keyed by dotted path (``h.a``, ``h.$valid`` ...).
    outputs: Dict[str, Term]
    #: Input symbols keyed by path (header fields, validity bits).
    inputs: Dict[str, Term]
    #: Symbolic table metadata, in application order.
    tables: List[TableInfo]
    #: Branch conditions encountered, in program order (for path enumeration).
    branch_conditions: List[Term]
    #: Path conditions under which parser-loop unrolling exhausted its
    #: budget.  On such paths the symbolic model *under-approximates* the
    #: parser (the concrete target keeps iterating), so any consumer that
    #: compares against real execution -- the packet-test oracle -- must
    #: exclude them (paper §5.2: a false alarm is an interpreter bug).
    #: Translation validation is unaffected: both snapshots are modelled
    #: with the same budget, so the approximation cancels out.
    parser_overflows: List[Term] = field(default_factory=list)
    #: Initial register/counter cell terms keyed by internal state path
    #: (``$state.<bank>[<i>]``).  Fresh symbols when the block is interpreted
    #: standalone (translation validation then quantifies over every initial
    #: state); the previous packet's final-state terms inside a sequence.
    state_inputs: Dict[str, Term] = field(default_factory=dict)
    #: Final register/counter cell terms, same keys as ``state_inputs``.
    #: State-aware equivalence compares these alongside ``outputs``.
    state_outputs: Dict[str, Term] = field(default_factory=dict)


class _Environment:
    """A mutable mapping from paths/locals to terms, copyable for branches."""

    def __init__(self) -> None:
        self.values: Dict[str, Term] = {}
        self.widths: Dict[str, Optional[int]] = {}

    def copy(self) -> "_Environment":
        out = _Environment()
        out.values = dict(self.values)
        out.widths = dict(self.widths)
        return out

    def set(self, path: str, term: Term, width: Optional[int]) -> None:
        self.values[path] = term
        self.widths[path] = width

    def get(self, path: str) -> Term:
        return self.values[path]

    def __contains__(self, path: str) -> bool:
        return path in self.values


def _merge(cond: Term, then_env: _Environment, else_env: _Environment) -> _Environment:
    """Merge two branch environments under a condition."""

    merged = _Environment()
    keys = set(then_env.values) | set(else_env.values)
    for key in keys:
        then_term = then_env.values.get(key)
        else_term = else_env.values.get(key)
        if then_term is None:
            merged.values[key] = else_term
        elif else_term is None:
            merged.values[key] = then_term
        elif then_term == else_term:
            merged.values[key] = then_term
        else:
            merged.values[key] = smt.Ite(cond, then_term, else_term)
        merged.widths[key] = then_env.widths.get(key, else_env.widths.get(key))
    return merged


class SymbolicInterpreter:
    """Interpret programs from the subset into SMT formulas."""

    MAX_PARSER_UNROLL = 16

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        try:
            self.checker = check_program(program)
        except TypeCheckError as exc:
            raise InterpreterError(f"cannot interpret an ill-typed program: {exc}") from exc
        self.functions = {function.name: function for function in program.functions()}

    # -- public API ---------------------------------------------------------

    def interpret(self) -> Dict[str, BlockSemantics]:
        """Interpret every programmable block of the program."""

        semantics: Dict[str, BlockSemantics] = {}
        for parser in self.program.parsers():
            semantics[parser.name] = self.interpret_parser(parser)
        for control in self.program.controls():
            semantics[control.name] = self.interpret_control(control)
        return semantics

    def interpret_pipeline(
        self,
        state_bindings: Optional[Dict[str, Term]] = None,
        symbol_suffix: str = "",
    ) -> BlockSemantics:
        """Interpret the parser (if any) and the ingress control as one pipeline.

        This is the view the symbolic-execution test generator needs: the
        end-to-end input/output relation a target exposes to packet tests.

        ``state_bindings`` seeds the register/counter cells: ``None`` gives
        every cell a fresh input symbol (the standalone view), a dict binds
        cells to the given terms with missing cells zero-filled (packet 0 of
        a sequence passes ``{}`` for the power-on state, packet ``i + 1``
        passes packet ``i``'s ``state_outputs``).  ``symbol_suffix`` is
        appended to every input/undef symbol name so the packets of a
        sequence draw independent inputs.  Table key/action/argument symbols
        are *not* suffixed: the control plane is installed once per sequence,
        so every packet must match against the same symbolic entries.
        """

        controls = self.program.controls()
        if not controls:
            raise InterpreterError("program has no control block")
        ingress = controls[0]
        state = _BlockState(
            self, ingress, symbol_suffix=symbol_suffix, state_bindings=state_bindings
        )
        state.initialise_parameters(ingress.params)
        for parser in self.program.parsers():
            state.execute_parser(parser)
        for local in ingress.locals:
            if isinstance(local, ast.VariableDeclaration):
                state.execute_statement(local)
        state.execute_statement(ingress.apply)
        return state.finish("pipeline", ingress.params)

    def interpret_sequence(self, length: int) -> List[BlockSemantics]:
        """Interpret a ``length``-packet sequence through the pipeline.

        Packet 0 starts from the all-zero power-on state; packet ``i + 1``'s
        cells are bound to packet ``i``'s final-state terms, so one solver
        over the concatenated constraints picks inputs for the whole
        sequence.  Symbols are suffixed ``@<i>`` per packet.  For a
        stateless program every packet is independent and the result is
        just ``length`` renamed copies of the pipeline semantics.
        """

        if length <= 0:
            raise InterpreterError("sequence length must be positive")
        semantics: List[BlockSemantics] = []
        bindings: Dict[str, Term] = {}
        for index in range(length):
            suffix = f"@{index}" if length > 1 else ""
            packet = self.interpret_pipeline(
                state_bindings=bindings, symbol_suffix=suffix
            )
            bindings = dict(packet.state_outputs)
            semantics.append(packet)
        return semantics

    def interpret_control(self, control: ast.ControlDeclaration) -> BlockSemantics:
        state = _BlockState(self, control)
        state.initialise_parameters(control.params)
        for local in control.locals:
            if isinstance(local, ast.VariableDeclaration):
                state.execute_statement(local)
        state.execute_statement(control.apply)
        return state.finish(control.name, control.params)

    def interpret_parser(self, parser: ast.ParserDeclaration) -> BlockSemantics:
        state = _BlockState(self, None)
        state.initialise_parameters(parser.params)
        state.execute_parser(parser)
        return state.finish(parser.name, parser.params)

    # -- helpers shared with _BlockState ----------------------------------------

    def resolve_type(self, type_ref: P4Type) -> P4Type:
        return self.checker.types.resolve(type_ref)


class _BlockState:
    """Interpretation state for one programmable block."""

    def __init__(
        self,
        interpreter: SymbolicInterpreter,
        control: Optional[ast.ControlDeclaration],
        symbol_suffix: str = "",
        state_bindings: Optional[Dict[str, Term]] = None,
    ) -> None:
        self.interpreter = interpreter
        self.control = control
        self.symbol_suffix = symbol_suffix
        self.state_bindings = state_bindings
        self.env = _Environment()
        self.inputs: Dict[str, Term] = {}
        self.tables: List[TableInfo] = []
        self.branch_conditions: List[Term] = []
        self.parser_overflows: List[Term] = []
        self.header_types: Dict[str, HeaderType] = {}
        #: Header-stack struct fields: field name -> (element type, size).
        #: Elements are addressed as ``<field>[<i>]`` paths; the per-stack
        #: ``nextIndex`` counter lives in the environment under the internal
        #: ``<field>.$nextIndex`` path (never an input or an output).
        self.stacks: Dict[str, Tuple[HeaderType, int]] = {}
        #: Register/counter banks: name -> (cell width, bank size).  Cells
        #: live in the environment under internal ``$state.<name>[<i>]``
        #: paths; counters are 32-bit register banks whose ``count`` is a
        #: read-modify-write increment (see repro.p4.registers).
        self.state_banks: Dict[str, Tuple[int, int]] = {}
        self.state_inputs: Dict[str, Term] = {}
        self.struct_paths: List[str] = []
        self.actions: Dict[str, ast.ActionDeclaration] = {}
        self.table_decls: Dict[str, ast.TableDeclaration] = {}
        self._call_depth = 0
        if control is not None:
            for local in control.locals:
                if isinstance(local, ast.ActionDeclaration):
                    self.actions[local.name] = local
                elif isinstance(local, ast.TableDeclaration):
                    self.table_decls[local.name] = local
                elif isinstance(local, ast.RegisterDeclaration):
                    self.state_banks[local.name] = (local.width, local.size)
                elif isinstance(local, ast.CounterDeclaration):
                    self.state_banks[local.name] = (COUNTER_WIDTH, local.size)

    def _sym(self, name: str) -> str:
        """Symbol name with the per-packet suffix applied."""

        return f"{name}{self.symbol_suffix}" if self.symbol_suffix else name

    # -- parameter initialisation ----------------------------------------------------

    def initialise_parameters(self, params: Sequence[ast.Parameter]) -> None:
        self.env.set("$active", smt.BoolVal(True), None)
        for param in params:
            param_type = self.interpreter.resolve_type(param.param_type)
            if isinstance(param_type, StructType):
                self._initialise_struct(param.name, param_type, param)
            elif isinstance(param_type, BitType):
                self._initialise_scalar(param.name, param_type.width, param)
            elif isinstance(param_type, BoolType):
                symbol = smt.BoolSym(self._sym(param.name))
                if param.direction == "out":
                    symbol = smt.BoolSym(self._sym(f"undef_{param.name}"))
                self.env.set(param.name, symbol, None)
                self.inputs[param.name] = symbol
            else:
                raise InterpreterError(f"unsupported parameter type {param_type}")
        self._initialise_state()

    def _initialise_state(self) -> None:
        """Seed every register/counter cell with its initial term.

        Standalone interpretation (``state_bindings is None``) gives each
        cell a fresh input symbol named after its state path, so both
        snapshots of a translation-validation pair share the symbols and
        equivalence quantifies over *every* initial state.  Sequence
        interpretation passes bound terms; cells absent from the bindings
        start at the zeroed power-on value.
        """

        for name, (width, size) in self.state_banks.items():
            for index in range(size):
                path = f"$state.{name}[{index}]"
                if self.state_bindings is None:
                    term: Term = smt.BitVecSym(self._sym(path), width)
                else:
                    term = self.state_bindings.get(path, smt.BitVecVal(0, width))
                self.env.set(path, term, width)
                self.state_inputs[path] = term

    def _initialise_struct(self, prefix: str, struct: StructType, param: ast.Parameter) -> None:
        # The struct parameter itself is addressed through its fields; the
        # root name is remembered so member lookups can strip it.
        self.struct_paths.append(prefix)
        for field_name, field_type in struct.fields:
            resolved = self.interpreter.resolve_type(field_type)
            if isinstance(resolved, HeaderType):
                self._initialise_header_instance(field_name, resolved)
            elif isinstance(resolved, HeaderStackType):
                element_type = self.interpreter.resolve_type(resolved.element)
                if not isinstance(element_type, HeaderType):
                    raise InterpreterError(
                        f"stack {field_name!r} has a non-header element type"
                    )
                self.stacks[field_name] = (element_type, resolved.size)
                for index in range(resolved.size):
                    self._initialise_header_instance(
                        f"{field_name}[{index}]", element_type
                    )
                # nextIndex is deterministic interpreter state, not an input.
                self.env.set(
                    f"{field_name}.$nextIndex",
                    smt.BitVecVal(0, NEXT_INDEX_WIDTH),
                    NEXT_INDEX_WIDTH,
                )
            elif isinstance(resolved, BitType):
                symbol = smt.BitVecSym(self._sym(field_name), resolved.width)
                self.env.set(field_name, symbol, resolved.width)
                self.inputs[field_name] = symbol
            elif isinstance(resolved, BoolType):
                symbol = smt.BoolSym(self._sym(field_name))
                self.env.set(field_name, symbol, None)
                self.inputs[field_name] = symbol
            else:
                raise InterpreterError(f"unsupported struct field type {resolved}")

    def _initialise_header_instance(self, header_path: str, header_type: HeaderType) -> None:
        self.header_types[header_path] = header_type
        valid_sym = smt.BoolSym(self._sym(f"{header_path}.$valid"))
        self.env.set(f"{header_path}.$valid", valid_sym, None)
        self.inputs[f"{header_path}.$valid"] = valid_sym
        for sub_field, sub_type in header_type.fields:
            path = f"{header_path}.{sub_field}"
            symbol = smt.BitVecSym(self._sym(path), sub_type.width)
            self.env.set(path, symbol, sub_type.width)
            self.inputs[path] = symbol

    def _initialise_scalar(self, name: str, width: int, param: ast.Parameter) -> None:
        if param.direction == "out":
            symbol = smt.BitVecSym(self._sym(f"undef_{name}"), width)
        else:
            symbol = smt.BitVecSym(self._sym(name), width)
        self.env.set(name, symbol, width)
        self.inputs[name] = symbol

    # -- finishing --------------------------------------------------------------------

    def finish(self, block_name: str, params: Sequence[ast.Parameter]) -> BlockSemantics:
        outputs: Dict[str, Term] = {}
        for param in params:
            if not param.is_writable and param.direction != "":
                continue
            param_type = self.interpreter.resolve_type(param.param_type)
            if isinstance(param_type, StructType):
                for field_name, field_type in param_type.fields:
                    resolved = self.interpreter.resolve_type(field_type)
                    if isinstance(resolved, HeaderType):
                        self._finish_header(field_name, resolved, outputs)
                    elif isinstance(resolved, HeaderStackType):
                        # Every element is observable; nextIndex is not.
                        element_type = self.interpreter.resolve_type(resolved.element)
                        for index in range(resolved.size):
                            self._finish_header(
                                f"{field_name}[{index}]", element_type, outputs
                            )
                    else:
                        outputs[field_name] = smt.simplify(self.env.get(field_name))
            else:
                outputs[param.name] = smt.simplify(self.env.get(param.name))
        state_outputs = {
            path: smt.simplify(self.env.get(path)) for path in self.state_inputs
        }
        return BlockSemantics(
            block=block_name,
            outputs=outputs,
            inputs=dict(self.inputs),
            tables=self.tables,
            branch_conditions=self.branch_conditions,
            parser_overflows=self.parser_overflows,
            state_inputs=dict(self.state_inputs),
            state_outputs=state_outputs,
        )

    def _finish_header(
        self, header_path: str, header_type: HeaderType, outputs: Dict[str, Term]
    ) -> None:
        valid_path = f"{header_path}.$valid"
        valid_term = self.env.get(valid_path)
        outputs[valid_path] = smt.simplify(valid_term)
        for sub_field, _sub_type in header_type.fields:
            path = f"{header_path}.{sub_field}"
            # An invalid output header exposes no field values (paper: "all
            # fields in the header are set to invalid as well"); fields
            # collapse to a fixed "invalid" marker so equivalent programs
            # that differ only on dead fields stay equivalent.
            field_term = smt.Ite(
                valid_term,
                self.env.get(path),
                smt.BitVecVal(0, self.env.widths[path] or 1),
            )
            outputs[path] = smt.simplify(field_term)

    # -- value helpers -------------------------------------------------------------------

    def _active(self) -> Term:
        return self.env.get("$active")

    def _undef(self, path: str, width: Optional[int]) -> Term:
        if width is None:
            return smt.BoolSym(self._sym(f"undef_{path}"))
        return smt.BitVecSym(self._sym(f"undef_{path}"), width)

    def _header_of_path(self, path: str) -> Optional[str]:
        if "." in path:
            root = path.split(".", 1)[0]
            if root in self.header_types:
                return root
        return None

    # -- statements ------------------------------------------------------------------------

    def execute_statement(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.BlockStatement):
            for child in statement.statements:
                self.execute_statement(child)
        elif isinstance(statement, ast.VariableDeclaration):
            self._declare_variable(statement)
        elif isinstance(statement, ast.AssignmentStatement):
            self._assign(statement.lhs, self.evaluate(statement.rhs))
        elif isinstance(statement, ast.IfStatement):
            self._execute_if(statement)
        elif isinstance(statement, ast.MethodCallStatement):
            self._execute_call(statement.call)
        elif isinstance(statement, ast.ExitStatement):
            self.env.set("$active", smt.BoolVal(False), None)
        elif isinstance(statement, ast.ReturnStatement):
            self._execute_return(statement)
        elif isinstance(statement, ast.EmptyStatement):
            return
        else:
            raise InterpreterError(f"cannot interpret statement {type(statement).__name__}")

    def _declare_variable(self, statement: ast.VariableDeclaration) -> None:
        var_type = self.interpreter.resolve_type(statement.var_type)
        if isinstance(var_type, BitType):
            width: Optional[int] = var_type.width
        elif isinstance(var_type, BoolType):
            width = None
        else:
            raise InterpreterError(f"unsupported local type {var_type}")
        if statement.initializer is not None:
            value = self._coerce(self.evaluate(statement.initializer), width)
        else:
            value = self._undef(statement.name, width)
        self.env.set(statement.name, value, width)

    def _coerce(self, term: Term, width: Optional[int]) -> Term:
        if width is None:
            return term
        if term.sort.is_bool():
            return smt.Ite(term, smt.BitVecVal(1, width), smt.BitVecVal(0, width))
        if term.width == width:
            return term
        if term.width > width:
            return smt.Extract(width - 1, 0, term)
        return smt.ZeroExt(width - term.width, term)

    def _execute_if(self, statement: ast.IfStatement) -> None:
        cond = self._as_bool(self.evaluate(statement.cond))
        if not getattr(self, "_in_stack_lowering", False):
            # Lowered stack shifts branch once per element; those conditions
            # are bookkeeping, not program paths worth a test-generation slot.
            self.branch_conditions.append(cond)
        then_state = self.env.copy()
        else_state = self.env.copy()

        saved = self.env
        self.env = then_state
        self.execute_statement(statement.then_branch)
        then_state = self.env

        self.env = else_state
        if statement.else_branch is not None:
            self.execute_statement(statement.else_branch)
        else_state = self.env

        self.env = _merge(cond, then_state, else_state)
        del saved

    def _execute_return(self, statement: ast.ReturnStatement) -> None:
        slot = f"$retval_{self._call_depth}"
        if statement.value is not None:
            value = self.evaluate(statement.value)
            if slot in self.env:
                previous = self.env.get(slot)
                merged = smt.Ite(self._active(), value, previous)
            else:
                merged = value
            self.env.set(slot, merged, None)
        self.env.set("$active", smt.BoolVal(False), None)

    # -- l-values ---------------------------------------------------------------------------

    def _assign(self, lhs: ast.Expression, value: Term) -> None:
        if isinstance(lhs, ast.PathExpression):
            self._guarded_write(lhs.name, value)
            return
        if isinstance(lhs, ast.Member):
            path = self._member_path(lhs)
            if path is None:
                raise InterpreterError(f"cannot resolve l-value {lhs}")
            self._guarded_write(path, value, header=self._header_of_path(path))
            return
        if isinstance(lhs, ast.Slice):
            base_path_expr = lhs.expr
            current = self.evaluate(base_path_expr)
            width = current.width
            slice_width = lhs.high - lhs.low + 1
            coerced = self._coerce(value, slice_width)
            pieces: List[Term] = []
            if lhs.high + 1 <= width - 1:
                pieces.append(smt.Extract(width - 1, lhs.high + 1, current))
            pieces.append(coerced)
            if lhs.low > 0:
                pieces.append(smt.Extract(lhs.low - 1, 0, current))
            new_value = pieces[0] if len(pieces) == 1 else smt.Concat(*pieces)
            self._assign(base_path_expr, new_value)
            return
        raise InterpreterError("unsupported assignment target")

    def _guarded_write(self, path: str, value: Term, header: Optional[str] = None) -> None:
        if path not in self.env:
            raise InterpreterError(f"write to unknown location {path!r}")
        width = self.env.widths.get(path)
        value = self._coerce(value, width)
        old = self.env.get(path)
        guard = self._active()
        if header is not None:
            guard = smt.And(guard, self.env.get(f"{header}.$valid"))
        self.env.set(path, smt.Ite(guard, value, old), width)

    def _member_path(self, expr: ast.Expression) -> Optional[str]:
        """Dotted environment path of an l-value expression.

        Stack elements are addressed with their index in the path, e.g.
        ``hdr.hs[1].a`` resolves to ``hs[1].a`` (the struct root is
        stripped, as for plain headers).
        """

        if isinstance(expr, ast.PathExpression):
            return "" if expr.name in self.struct_paths else expr.name
        if isinstance(expr, ast.Member):
            base = self._member_path(expr.expr)
            if base is None:
                return None
            return f"{base}.{expr.member}" if base else expr.member
        if isinstance(expr, ast.ArrayIndex):
            base = self._member_path(expr.expr)
            if base is None or not isinstance(expr.index, ast.Constant):
                return None
            return f"{base}[{expr.index.value}]"
        return None

    def _stack_of(self, expr: ast.Expression) -> Optional[str]:
        """The stack field name behind ``expr``, when it names a stack."""

        path = self._member_path(expr)
        if path is not None and path in self.stacks:
            return path
        return None

    def _counter_ref(self, stack: str) -> ast.PathExpression:
        """AST reference to a stack's internal ``nextIndex`` counter.

        The environment is keyed by plain strings, so a path expression
        whose "name" is the internal ``<stack>.$nextIndex`` slot reads and
        writes the counter through the ordinary statement machinery -- the
        lowered statement sequences from :mod:`repro.p4.stacks` execute
        unchanged.  The ``$`` keeps it out of any real program's namespace.
        """

        return ast.PathExpression(f"{stack}.$nextIndex")

    # -- calls ------------------------------------------------------------------------------------

    def _execute_call(self, call: ast.MethodCallExpression) -> Optional[Term]:
        target = call.target
        if isinstance(target, ast.Member):
            method = target.member
            if method in ("setValid", "setInvalid"):
                header = self._header_name(target.expr)
                path = f"{header}.$valid"
                new_value = smt.BoolVal(method == "setValid")
                old = self.env.get(path)
                self.env.set(path, smt.Ite(self._active(), new_value, old), None)
                return None
            if method == "isValid":
                header = self._header_name(target.expr)
                return self.env.get(f"{header}.$valid")
            if method == "apply":
                if isinstance(target.expr, ast.PathExpression):
                    self._apply_table(target.expr.name)
                    return None
                raise InterpreterError("apply() on a non-table expression")
            if method in ("extract", "emit"):
                if call.args and isinstance(call.args[0], ast.Member):
                    arg = call.args[0]
                    stack = (
                        self._stack_of(arg.expr) if arg.member == "next" else None
                    )
                    if stack is not None:
                        if method == "extract":
                            self._extract_stack_next(arg.expr, stack)
                        return None
                    header = self._header_name(arg)
                    if method == "extract":
                        path = f"{header}.$valid"
                        self.env.set(
                            path,
                            smt.Ite(self._active(), smt.BoolVal(True), self.env.get(path)),
                            None,
                        )
                return None
            if method in ("push_front", "pop_front"):
                stack = self._stack_of(target.expr)
                if stack is None:
                    raise InterpreterError(f"{method} on a non-stack expression")
                if not call.args or not isinstance(call.args[0], ast.Constant):
                    raise InterpreterError(f"{method} needs a constant count")
                self._run_stack_shift(target.expr, stack, method, call.args[0].value)
                return None
            if method in ("read", "write", "count"):
                self._execute_state_call(method, target, call)
                return None
            raise InterpreterError(f"unknown method {method!r}")
        if isinstance(target, ast.PathExpression):
            if target.name == "NoAction":
                return None
            action = self.actions.get(target.name)
            if action is not None:
                self._invoke_callable(action.params, action.body, call.args, is_function=False)
                return None
            function = self.interpreter.functions.get(target.name)
            if function is not None:
                return self._invoke_callable(
                    function.params, function.body, call.args, is_function=True
                )
            raise InterpreterError(f"call to unknown callee {target.name!r}")
        raise InterpreterError("unsupported call target")

    # -- registers and counters ---------------------------------------------------
    #
    # Per-cell terms, no SMT array theory: a read is an Ite chain over the
    # cells, a write guards every cell with "active and index selects it".
    # ``count`` is *defined* as the read-modify-write increment the
    # StatefulLowering mid-end pass emits (repro.p4.registers), so the
    # native semantics and the correct lowering agree by construction.

    def _execute_state_call(
        self, method: str, target: ast.Member, call: ast.MethodCallExpression
    ) -> None:
        if not (
            isinstance(target.expr, ast.PathExpression)
            and target.expr.name in self.state_banks
        ):
            raise InterpreterError(f"{method} on a non-state expression")
        name = target.expr.name
        width, size = self.state_banks[name]
        if method == "count":
            if len(call.args) != 1:
                raise InterpreterError("count takes exactly one argument")
            index = self._state_index(call.args[0], size)
            current = self._state_read(name, index)
            self._state_write(
                name, index, smt.Add(current, smt.BitVecVal(1, width))
            )
            return
        if method == "read":
            if len(call.args) != 2:
                raise InterpreterError("read takes exactly two arguments")
            index = self._state_index(call.args[1], size)
            self._assign(call.args[0], self._state_read(name, index))
            return
        if len(call.args) != 2:
            raise InterpreterError("write takes exactly two arguments")
        index = self._state_index(call.args[0], size)
        value = self._coerce(self.evaluate(call.args[1]), width)
        self._state_write(name, index, value)

    def _state_index(self, expr: ast.Expression, size: int) -> Term:
        """The effective cell index: normalised to 32 bits, wrapped modulo
        the bank size (the runtime convention for key-derived indices; both
        interpreters and every backend share it)."""

        term = self._coerce(self.evaluate(expr), STATE_INDEX_WIDTH)
        return smt.URem(term, smt.BitVecVal(size, STATE_INDEX_WIDTH))

    def _state_read(self, name: str, index: Term) -> Term:
        _width, size = self.state_banks[name]
        value = self.env.get(f"$state.{name}[{size - 1}]")
        for cell in reversed(range(size - 1)):
            value = smt.Ite(
                smt.Eq(index, smt.BitVecVal(cell, STATE_INDEX_WIDTH)),
                self.env.get(f"$state.{name}[{cell}]"),
                value,
            )
        return value

    def _state_write(self, name: str, index: Term, value: Term) -> None:
        width, size = self.state_banks[name]
        active = self._active()
        for cell in range(size):
            path = f"$state.{name}[{cell}]"
            guard = smt.And(
                active, smt.Eq(index, smt.BitVecVal(cell, STATE_INDEX_WIDTH))
            )
            self.env.set(path, smt.Ite(guard, value, self.env.get(path)), width)

    def _header_name(self, expr: ast.Expression) -> str:
        if isinstance(expr, (ast.Member, ast.ArrayIndex)):
            path = self._member_path(expr)
            if path is not None and path in self.header_types:
                return path
        raise InterpreterError(f"expression {expr} does not name a header instance")

    # -- header stacks -----------------------------------------------------------------------
    #
    # Native stack operations execute the exact scalar-header statement
    # sequences the (correct) HeaderStackFlattening lowering emits, so the
    # native semantics and the lowered program are equivalent by
    # construction (see repro.p4.stacks).

    def _run_stack_shift(
        self, stack_expr: ast.Expression, stack: str, method: str, count: int
    ) -> None:
        element_type, size = self.stacks[stack]
        field_names = element_type.field_names()
        if method == "push_front":
            lowered = stack_lowering.lower_push_front(
                stack_expr, field_names, size, count
            )
        else:
            lowered = stack_lowering.lower_pop_front(
                stack_expr, field_names, size, count
            )
        self._execute_lowered(lowered)

    def _execute_lowered(self, statements: Sequence[ast.Statement]) -> None:
        saved = getattr(self, "_in_stack_lowering", False)
        self._in_stack_lowering = True
        try:
            for statement in statements:
                self.execute_statement(statement)
        finally:
            self._in_stack_lowering = saved

    def _extract_stack_next(self, stack_expr: ast.Expression, stack: str) -> None:
        element_type, size = self.stacks[stack]
        counter = self.env.get(f"{stack}.$nextIndex")
        # Record the path condition under which the extract overruns the
        # stack capacity.  The model keeps stepping with no element left to
        # validate (matching the lowered if-chain, so translation validation
        # is exact), but a concrete target would raise StackOutOfBounds --
        # the packet-test oracle must steer inputs away from these paths,
        # exactly like the unroll-budget overflows.
        overflow = smt.simplify(
            smt.And(
                self._parser_path_cond(),
                smt.Uge(counter, smt.BitVecVal(size, NEXT_INDEX_WIDTH)),
            )
        )
        if overflow != smt.BoolVal(False):
            self.parser_overflows.append(overflow)
        lowered = stack_lowering.lower_extract_next(
            stack_expr, self._counter_ref(stack), size
        )
        self._execute_lowered(lowered)

    def _parser_path_cond(self) -> Term:
        return getattr(self, "_current_path_cond", smt.BoolVal(True))

    def _invoke_callable(
        self,
        params: Sequence[ast.Parameter],
        body: ast.BlockStatement,
        args: Sequence[ast.Expression],
        is_function: bool,
    ) -> Optional[Term]:
        """Copy-in / copy-out invocation of an action or function."""

        self._call_depth += 1
        depth = self._call_depth
        saved_bindings: Dict[str, Tuple[Optional[Term], Optional[int]]] = {}
        copy_out: List[Tuple[ast.Expression, str]] = []

        # Copy-in, left to right (P4-16 §6.7).
        for param, arg in zip(params, args):
            param_type = self.interpreter.resolve_type(param.param_type)
            width = param_type.width if isinstance(param_type, BitType) else None
            saved_bindings[param.name] = (
                self.env.values.get(param.name),
                self.env.widths.get(param.name),
            )
            if param.is_readable:
                value = self._coerce(self.evaluate(arg), width)
            else:
                value = self._undef(f"{param.name}_{depth}", width)
            self.env.set(param.name, value, width)
            if param.is_writable:
                copy_out.append((arg, param.name))

        saved_active = self._active()
        retval_slot = f"$retval_{depth}"

        self.execute_statement(body)

        result: Optional[Term] = None
        if is_function and retval_slot in self.env:
            result = self.env.get(retval_slot)
        post_body_active = self._active()

        # Copy-out, left to right.  Copy-out must happen even when the callee
        # exited (the specification clarification behind figure 5f), so it is
        # performed under the activity condition that held at call entry.
        copy_out_values = [(arg, self.env.get(name)) for arg, name in copy_out]
        for name, (old_value, old_width) in saved_bindings.items():
            if old_value is None:
                self.env.values.pop(name, None)
                self.env.widths.pop(name, None)
            else:
                self.env.set(name, old_value, old_width)
        self.env.set("$active", saved_active, None)
        for arg, value in copy_out_values:
            self._assign(arg, value)

        # A return only terminates the callee, so the caller stays active; an
        # exit inside an action deactivates the rest of the control.
        if is_function:
            self.env.set("$active", saved_active, None)
        else:
            self.env.set("$active", post_body_active, None)

        self._call_depth -= 1
        return result

    # -- tables -----------------------------------------------------------------------------------

    def _apply_table(self, table_name: str) -> None:
        table = self.table_decls.get(table_name)
        if table is None:
            raise InterpreterError(f"apply() on unknown table {table_name!r}")

        key_symbols: List[str] = []
        key_widths: List[int] = []
        hit_conditions: List[Term] = []
        for index, key in enumerate(table.keys):
            key_term = self.evaluate(key.expr)
            if key_term.sort.is_bool():
                key_term = self._coerce(key_term, 1)
            # Table symbols deliberately do NOT carry the per-packet suffix:
            # the control plane is installed once per *sequence*, so every
            # packet must see the same symbolic table configuration.
            symbol_name = f"{table_name}_key_{index}"
            symbol = smt.BitVecSym(symbol_name, key_term.width)
            key_symbols.append(symbol_name)
            key_widths.append(key_term.width)
            hit_conditions.append(smt.Eq(key_term, symbol))
        hit = smt.And(*hit_conditions) if hit_conditions else smt.BoolVal(False)

        action_symbol_name = f"{table_name}_action"
        action_symbol = smt.BitVecSym(action_symbol_name, 8)

        info = TableInfo(
            table=table_name,
            key_symbols=key_symbols,
            key_widths=key_widths,
            action_symbol=action_symbol_name,
            actions=[ref.name for ref in table.actions],
            default_action=(table.default_action or ast.ActionRef("NoAction")).name,
        )

        default_ref = table.default_action or ast.ActionRef("NoAction")
        base_env = self.env

        def run_action(ref: ast.ActionRef, env: _Environment, symbolic_args: bool) -> _Environment:
            self.env = env
            if ref.name != "NoAction":
                action = self.actions.get(ref.name)
                if action is None:
                    raise InterpreterError(
                        f"table {table_name!r} references unknown action {ref.name!r}"
                    )
                if symbolic_args:
                    args: List[ast.Expression] = []
                    arg_records: List[Tuple[str, int]] = []
                    bindings: Dict[str, Term] = {}
                    for param in action.params:
                        param_type = self.interpreter.resolve_type(param.param_type)
                        width = param_type.width if isinstance(param_type, BitType) else 1
                        symbol_name = f"{table_name}_{ref.name}_{param.name}"
                        bindings[param.name] = smt.BitVecSym(symbol_name, width)
                        arg_records.append((symbol_name, width))
                    info.action_args[ref.name] = arg_records
                    self._invoke_with_bound_params(action, bindings)
                else:
                    self._invoke_with_bound_params(
                        action,
                        {
                            param.name: self._coerce(
                                self.evaluate(arg),
                                self._param_width(param),
                            )
                            for param, arg in zip(action.params, ref.args)
                        },
                    )
            result = self.env
            self.env = base_env
            return result

        # Default action environment (also used when the key misses).
        default_env = run_action(default_ref, base_env.copy(), symbolic_args=False)

        # Build the nested choice over the listed actions.
        chosen_env = default_env
        for index in reversed(range(len(table.actions))):
            ref = table.actions[index]
            action_env = run_action(ref, base_env.copy(), symbolic_args=True)
            selector = smt.Eq(action_symbol, smt.BitVecVal(index + 1, 8))
            chosen_env = _merge(selector, action_env, chosen_env)

        self.env = _merge(hit, chosen_env, default_env)
        self.tables.append(info)

    def _param_width(self, param: ast.Parameter) -> Optional[int]:
        param_type = self.interpreter.resolve_type(param.param_type)
        return param_type.width if isinstance(param_type, BitType) else None

    def _invoke_with_bound_params(
        self, action: ast.ActionDeclaration, bindings: Dict[str, Term]
    ) -> None:
        saved: Dict[str, Tuple[Optional[Term], Optional[int]]] = {}
        for param in action.params:
            saved[param.name] = (
                self.env.values.get(param.name),
                self.env.widths.get(param.name),
            )
            width = self._param_width(param)
            value = bindings.get(param.name, self._undef(f"{action.name}_{param.name}", width))
            self.env.set(param.name, value, width)
        self.execute_statement(action.body)
        for name, (old_value, old_width) in saved.items():
            if old_value is None:
                self.env.values.pop(name, None)
                self.env.widths.pop(name, None)
            else:
                self.env.set(name, old_value, old_width)

    # -- parsers -----------------------------------------------------------------------------------

    def execute_parser(self, parser: ast.ParserDeclaration) -> None:
        self._execute_parser_state(parser, "start", depth=0, path_cond=smt.BoolVal(True))

    def _execute_parser_state(
        self, parser: ast.ParserDeclaration, state_name: str, depth: int, path_cond: Term
    ) -> None:
        if state_name in ("accept", "reject"):
            return
        if depth > self.interpreter.MAX_PARSER_UNROLL:
            # Bounded unrolling: the model under-approximates this path (a
            # concrete target would keep stepping), so record the condition
            # under which it is reached.  The packet-test oracle constrains
            # inputs away from these paths; translation validation needs no
            # exclusion because both snapshots share the same budget.
            self.parser_overflows.append(smt.simplify(path_cond))
            return
        state = parser.state(state_name)
        if state is None:
            raise InterpreterError(f"parser transitions to unknown state {state_name!r}")
        # Remember the condition under which this state is reached: stack
        # extracts executed below record capacity overflows under it.
        self._current_path_cond = path_cond
        for statement in state.statements:
            self.execute_statement(statement)
        if state.select_expr is None:
            self._execute_parser_state(
                parser, state.next_state or "accept", depth + 1, path_cond
            )
            return

        selector = self.evaluate(state.select_expr)
        default_target = "reject"
        branches: List[Tuple[Term, str]] = []
        for case in state.cases:
            if case.value is None:
                default_target = case.next_state
                continue
            value_term = self._coerce(self.evaluate(case.value), selector.width)
            branches.append((smt.Eq(selector, value_term), case.next_state))

        def explore(index: int, reach_cond: Term) -> _Environment:
            if index >= len(branches):
                self_env = self.env.copy()
                saved = self.env
                self.env = self_env
                self._execute_parser_state(parser, default_target, depth + 1, reach_cond)
                result = self.env
                self.env = saved
                return result
            cond, target = branches[index]
            saved = self.env
            taken_env = self.env.copy()
            self.env = taken_env
            self._execute_parser_state(
                parser, target, depth + 1, smt.And(reach_cond, cond)
            )
            taken_env = self.env
            self.env = saved
            rest_env = explore(index + 1, smt.And(reach_cond, smt.Not(cond)))
            return _merge(cond, taken_env, rest_env)

        self.env = explore(0, path_cond)

    # -- expressions --------------------------------------------------------------------------------

    def _as_bool(self, term: Term) -> Term:
        if term.sort.is_bool():
            return term
        return smt.Ne(term, smt.BitVecVal(0, term.width))

    def evaluate(self, expr: ast.Expression) -> Term:
        if isinstance(expr, ast.Constant):
            width = expr.width if expr.width is not None else 32
            return smt.BitVecVal(expr.value, width)
        if isinstance(expr, ast.BoolLiteral):
            return smt.BoolVal(expr.value)
        if isinstance(expr, ast.PathExpression):
            if expr.name in self.env:
                return self.env.get(expr.name)
            raise InterpreterError(f"read of unknown variable {expr.name!r}")
        if isinstance(expr, ast.Member):
            return self._evaluate_member(expr)
        if isinstance(expr, ast.Slice):
            base = self.evaluate(expr.expr)
            return smt.Extract(expr.high, expr.low, base)
        if isinstance(expr, ast.UnaryOp):
            return self._evaluate_unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._evaluate_binary(expr)
        if isinstance(expr, ast.Ternary):
            cond = self._as_bool(self.evaluate(expr.cond))
            then = self.evaluate(expr.then)
            orelse = self.evaluate(expr.orelse)
            then, orelse = self._unify_widths(then, orelse)
            return smt.Ite(cond, then, orelse)
        if isinstance(expr, ast.Cast):
            target = self.interpreter.resolve_type(expr.target)
            value = self.evaluate(expr.expr)
            if isinstance(target, BitType):
                return self._coerce(value, target.width)
            if isinstance(target, BoolType):
                return self._as_bool(value)
            raise InterpreterError(f"unsupported cast target {target}")
        if isinstance(expr, ast.MethodCallExpression):
            result = self._execute_call(expr)
            if result is None:
                raise InterpreterError("void call used in an expression")
            return result
        raise InterpreterError(f"cannot evaluate expression {type(expr).__name__}")

    def _evaluate_member(self, expr: ast.Member) -> Term:
        # ``stack.last.<field>``: the element at nextIndex - 1, evaluated as
        # the same constant-indexed ternary chain the flattening pass emits.
        if isinstance(expr.expr, ast.Member) and expr.expr.member == "last":
            stack = self._stack_of(expr.expr.expr)
            if stack is not None:
                _element_type, size = self.stacks[stack]
                chain = stack_lowering.last_field_expr(
                    expr.expr.expr, self._counter_ref(stack), expr.member, size
                )
                return self.evaluate(chain)
        path = self._member_path(expr)
        if path is None or path not in self.env:
            raise InterpreterError(f"cannot evaluate member {expr}")
        header = self._header_of_path(path)
        value = self.env.get(path)
        if header is not None:
            width = self.env.widths.get(path)
            return smt.Ite(
                self.env.get(f"{header}.$valid"), value, self._undef(path, width)
            )
        return value

    def _evaluate_unary(self, expr: ast.UnaryOp) -> Term:
        operand = self.evaluate(expr.expr)
        if expr.op == "!":
            return smt.Not(self._as_bool(operand))
        if expr.op == "~":
            return smt.BvNot(operand)
        if expr.op == "-":
            return smt.Sub(smt.BitVecVal(0, operand.width), operand)
        raise InterpreterError(f"unknown unary operator {expr.op!r}")

    def _unify_widths(self, left: Term, right: Term) -> Tuple[Term, Term]:
        if left.sort.is_bool() or right.sort.is_bool():
            return left, right
        if left.width == right.width:
            return left, right
        target = max(left.width, right.width)
        return self._coerce(left, target), self._coerce(right, target)

    def _evaluate_binary(self, expr: ast.BinaryOp) -> Term:
        op = expr.op
        if op in ("&&", "||"):
            left = self._as_bool(self.evaluate(expr.left))
            right = self._as_bool(self.evaluate(expr.right))
            return smt.And(left, right) if op == "&&" else smt.Or(left, right)

        left = self.evaluate(expr.left)
        right = self.evaluate(expr.right)
        # Width-less literals adapt to the other operand's width (P4-16
        # arbitrary-precision literals); this mirrors the type checker and
        # the concrete interpreter so the oracle agrees with the targets.
        if (
            isinstance(expr.left, ast.Constant)
            and expr.left.width is None
            and right.sort.is_bv()
        ):
            left = smt.BitVecVal(expr.left.value, right.width)
        elif (
            isinstance(expr.right, ast.Constant)
            and expr.right.width is None
            and left.sort.is_bv()
        ):
            right = smt.BitVecVal(expr.right.value, left.width)

        if op in ("==", "!="):
            if left.sort.is_bool() or right.sort.is_bool():
                left, right = self._as_bool(left), self._as_bool(right)
            else:
                left, right = self._unify_widths(left, right)
            return smt.Eq(left, right) if op == "==" else smt.Ne(left, right)

        if op == "++":
            return smt.Concat(left, right)

        left, right = self._unify_widths(left, right)
        if op == "+":
            return smt.Add(left, right)
        if op == "-":
            return smt.Sub(left, right)
        if op == "*":
            return smt.Mul(left, right)
        if op == "/":
            return smt.UDiv(left, right)
        if op == "%":
            return smt.URem(left, right)
        if op == "&":
            return smt.BvAnd(left, right)
        if op == "|":
            return smt.BvOr(left, right)
        if op == "^":
            return smt.BvXor(left, right)
        if op == "<<":
            return smt.Shl(left, right)
        if op == ">>":
            return smt.LShr(left, right)
        if op == "<":
            return smt.Ult(left, right)
        if op == "<=":
            return smt.Ule(left, right)
        if op == ">":
            return smt.Ugt(left, right)
        if op == ">=":
            return smt.Uge(left, right)
        raise InterpreterError(f"unknown binary operator {op!r}")
