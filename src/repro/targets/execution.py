"""Concrete execution of P4 programs on a packet.

This is the behavioural-model substrate: it interprets a program from the
subset directly over a :class:`~repro.targets.state.PacketState`, applying
the target's conventions for undefined values.  Every registered back end
(BMv2, Tofino, eBPF, ...) executes through this interpreter with its own
:class:`TargetSemantics` seeded-bug flags, just as the hardware targets in
the paper all consume P4C's mid-end output.

Semantics notes (kept deliberately aligned with the symbolic interpreter in
:mod:`repro.core.interpreter` so that a correct compiler never produces
expected/observed mismatches):

* reading an uninitialised local or a field of an invalid header yields
  :data:`~repro.targets.state.UNDEFINED_VALUE` (zero, like BMv2), the value
  the symbolic oracle fixes undefined reads to,
* writing a field of an invalid header is a no-op,
* ``setValid``/``setInvalid`` only toggle the validity bit; field contents
  are retained,
* division/remainder by zero follow the SMT-LIB convention (all-ones /
  dividend), and oversized shifts yield zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.p4 import ast
from repro.p4 import stacks as stack_lowering
from repro.p4.registers import COUNTER_WIDTH
from repro.p4.stacks import NEXT_INDEX_WIDTH
from repro.p4.typecheck import checked_types
from repro.p4.types import (
    BitType,
    BoolType,
    HeaderStackType,
    HeaderType,
    P4Type,
    StructType,
)
from repro.targets.state import (
    UNDEFINED_VALUE,
    HeaderInstance,
    PacketState,
    SwitchState,
    TableEntry,
)


class ExecutionError(Exception):
    """Raised when a program cannot be executed (malformed IR, bad config)."""


class _ExitSignal(Exception):
    """Internal: raised by ``exit`` statements to unwind the interpreter."""


class _ReturnSignal(Exception):
    """Internal: raised by ``return`` statements inside functions."""

    def __init__(self, value: Optional["Value"]) -> None:
        super().__init__("return")
        self.value = value


@dataclass(frozen=True)
class TargetSemantics:
    """A back end's seeded-defect flags (every flag off: the reference
    semantics the symbolic interpreter predicts)."""

    #: Drop assignments to slices narrower than this many bits
    #: (the Tofino ``tofino_slice_assignment_drop`` seeded defect).
    drop_narrow_slice_writes_below: int = 0
    #: Invert negated if conditions (``tofino_ternary_condition_flip``).
    flip_negated_conditions: bool = False
    #: Truncate writes to fields wider than 32 bits
    #: (``bmv2_wide_field_truncation``).
    truncate_wide_fields: bool = False
    #: On a table lookup miss, fall through to the table's first action
    #: instead of the declared default (``ebpf_map_lookup_miss_action``).
    miss_runs_first_action: bool = False
    #: Narrowing casts keep the source's *high* bits -- the AND-mask after
    #: the register move is dropped, so the value is taken from the wrong
    #: end of the 64-bit register (``ebpf_narrowing_cast_drop``).
    narrowing_cast_high_bits: bool = False
    #: Reads of 16-bit header fields return the byte-swapped value -- a
    #: missing network-to-host conversion (``ebpf_byte_order_swap``).
    swap_16bit_field_reads: bool = False
    #: The end-of-packet flush that persists register cells into the
    #: target's map uses a value one byte too small, so written cells lose
    #: their high byte *between* packets while same-packet reads still see
    #: the full value (``ebpf_register_write_drops_high_byte``).
    register_write_drops_high_byte: bool = False


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass
class Value:
    """A concrete bit-vector value with its width (or a Boolean)."""

    value: Union[int, bool]
    width: Optional[int] = None  # None for Booleans

    @property
    def as_int(self) -> int:
        return int(self.value)

    @property
    def as_bool(self) -> bool:
        return bool(self.value)


class ConcreteInterpreter:
    """Execute one program's parser + ingress control over a packet."""

    MAX_PARSER_STEPS = 256

    def __init__(
        self,
        program: ast.Program,
        semantics: Optional[TargetSemantics] = None,
        ingress_name: Optional[str] = None,
        source: Optional[str] = None,
    ) -> None:
        self.program = program
        self.semantics = semantics or TargetSemantics()
        #: Resolved types, memoised by ``source`` (the emitted source of
        #: ``program``) when the caller has it.
        self.types = checked_types(program, source)
        self.controls = {control.name: control for control in program.controls()}
        self.parsers = {parser.name: parser for parser in program.parsers()}
        self.functions = {function.name: function for function in program.functions()}
        #: Header-stack struct fields: field name -> (element type, size).
        #: Collected only from the struct types bound as block parameters --
        #: the structs whose fields actually address the packet state --
        #: mirroring how the symbolic interpreter resolves stacks, so a
        #: same-named stack in an unused struct cannot shadow the real one.
        self.stacks: Dict[str, Tuple[HeaderType, int]] = {}
        for declaration in list(program.controls()) + list(program.parsers()):
            for parameter in declaration.params:
                param_type = self.types.resolve(parameter.param_type)
                if not isinstance(param_type, StructType):
                    continue
                for field_name, field_type in param_type.fields:
                    if isinstance(field_type, HeaderStackType):
                        element = self.types.resolve(field_type.element)
                        self.stacks[field_name] = (element, field_type.size)
        if ingress_name is None:
            if not self.controls:
                raise ExecutionError("program has no control block to execute")
            ingress_name = next(iter(self.controls))
        if ingress_name not in self.controls:
            raise ExecutionError(f"unknown control {ingress_name!r}")
        self.ingress = self.controls[ingress_name]

    # -- public API ---------------------------------------------------------

    def run(
        self,
        packet: PacketState,
        entries: Sequence[TableEntry] = (),
        switch_state: Optional[SwitchState] = None,
    ) -> PacketState:
        """Execute the program on ``packet`` and return the output packet.

        ``switch_state`` is the persistent register/counter state the packet
        runs against; passing the same instance to consecutive calls
        executes a multi-packet sequence.  ``None`` (the default, and the
        behaviour of every pre-stateful caller) runs against a fresh
        power-on state that is discarded afterwards.
        """

        state = packet.copy()
        if switch_state is None:
            switch_state = SwitchState.for_program(self.program)
        else:
            # Late-declare any bank the caller's state does not know yet so
            # a state built for the pre-lowering program keeps working.
            for control in self.program.controls():
                for local in control.locals:
                    if isinstance(local, ast.RegisterDeclaration):
                        switch_state.declare(local.name, local.width, local.size)
                    elif isinstance(local, ast.CounterDeclaration):
                        switch_state.declare(local.name, COUNTER_WIDTH, local.size)
        entries_by_table: Dict[str, List[TableEntry]] = {}
        for entry in entries:
            entries_by_table.setdefault(entry.table, []).append(entry)

        if self.parsers:
            parser = next(iter(self.parsers.values()))
            self._run_parser(parser, state, entries_by_table)

        self._run_control(self.ingress, state, entries_by_table, switch_state)
        switch_state.commit(
            drop_high_byte=self.semantics.register_write_drops_high_byte
        )
        return state

    # -- block execution ---------------------------------------------------------

    def _run_parser(
        self,
        parser: ast.ParserDeclaration,
        state: PacketState,
        entries: Dict[str, List[TableEntry]],
    ) -> None:
        frame = _Frame(self, state, entries, control=None)
        current = "start"
        for _ in range(self.MAX_PARSER_STEPS):
            if current in ("accept", "reject"):
                return
            parser_state = parser.state(current)
            if parser_state is None:
                raise ExecutionError(f"parser transitions to unknown state {current!r}")
            try:
                for statement in parser_state.statements:
                    frame.execute(statement)
            except _ExitSignal:
                return
            current = self._next_state(parser_state, frame)
        raise ExecutionError("parser did not reach accept/reject within the step budget")

    def _next_state(self, parser_state: ast.ParserState, frame: "_Frame") -> str:
        if parser_state.select_expr is None:
            return parser_state.next_state or "accept"
        selector = frame.evaluate(parser_state.select_expr)
        default_target = "reject"
        for case in parser_state.cases:
            if case.value is None:
                default_target = case.next_state
                continue
            case_value = frame.evaluate(case.value)
            if case_value.as_int == selector.as_int:
                return case.next_state
        return default_target

    def _run_control(
        self,
        control: ast.ControlDeclaration,
        state: PacketState,
        entries: Dict[str, List[TableEntry]],
        switch_state: Optional[SwitchState] = None,
    ) -> None:
        frame = _Frame(self, state, entries, control=control, switch=switch_state)
        for local in control.locals:
            if isinstance(local, ast.VariableDeclaration):
                frame.declare(local)
        try:
            frame.execute(control.apply)
        except _ExitSignal:
            pass


@dataclass
class Executable:
    """A lowered program loaded into a target: what every back end's
    ``link`` returns.

    Back ends differ only in their lowering checks and their
    :class:`TargetSemantics`.  The oracles observe an executable through
    packets alone: :meth:`process` and the register/counter state it
    leaves between packets.
    """

    program: ast.Program
    semantics: TargetSemantics
    #: The emitted source of ``program``: its type check is memoised by it.
    source: Optional[str] = None
    #: Lazily-built interpreter shared by every packet.
    _interpreter: Optional[ConcreteInterpreter] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Persistent register/counter state: it survives across
    #: :meth:`process` calls, as on a running switch.
    _switch_state: Optional[SwitchState] = field(
        default=None, init=False, repr=False, compare=False
    )

    def process(self, packet: PacketState, entries: Sequence[TableEntry] = ()) -> PacketState:
        """Run one packet against the live switch state; return the output."""

        if self._interpreter is None:
            self._interpreter = ConcreteInterpreter(
                self.program, self.semantics, source=self.source
            )
        return self._interpreter.run(packet, entries, switch_state=self.switch_state())

    def switch_state(self) -> SwitchState:
        """The live register/counter state (created at power-on)."""

        if self._switch_state is None:
            self._switch_state = SwitchState.for_program(self.program)
        return self._switch_state

    def reset_state(self) -> None:
        """Power-cycle the target: every register/counter cell back to zero."""

        if self._switch_state is not None:
            self._switch_state.reset()


class _Frame:
    """Execution state for one block: local variables plus the packet."""

    def __init__(
        self,
        interpreter: ConcreteInterpreter,
        state: PacketState,
        entries: Dict[str, List[TableEntry]],
        control: Optional[ast.ControlDeclaration],
        switch: Optional[SwitchState] = None,
    ) -> None:
        self.interpreter = interpreter
        self.state = state
        self.entries = entries
        self.control = control
        self.switch = switch
        self.locals: Dict[str, Value] = {}
        self.local_types: Dict[str, P4Type] = {}
        self.actions: Dict[str, ast.ActionDeclaration] = {}
        self.tables: Dict[str, ast.TableDeclaration] = {}
        if control is not None:
            for local in control.locals:
                if isinstance(local, ast.ActionDeclaration):
                    self.actions[local.name] = local
                elif isinstance(local, ast.TableDeclaration):
                    self.tables[local.name] = local
        # Per-stack nextIndex counters, kept as internal locals so the
        # lowered stack statement sequences (repro.p4.stacks) execute
        # unchanged.  The ``$`` keeps the slot out of program namespaces.
        for stack_name in interpreter.stacks:
            counter = f"{stack_name}.$nextIndex"
            self.locals[counter] = Value(0, NEXT_INDEX_WIDTH)
            self.local_types[counter] = BitType(NEXT_INDEX_WIDTH)

    # -- declarations ------------------------------------------------------------

    def declare(self, declaration: ast.VariableDeclaration) -> None:
        var_type = self.interpreter.types.resolve(declaration.var_type)
        self.local_types[declaration.name] = var_type
        if declaration.initializer is not None:
            self.locals[declaration.name] = self._coerce(
                self.evaluate(declaration.initializer), var_type
            )
        else:
            self.locals[declaration.name] = self._default_value(var_type)

    def _default_value(self, var_type: P4Type) -> Value:
        if isinstance(var_type, BoolType):
            return Value(bool(UNDEFINED_VALUE), None)
        if isinstance(var_type, BitType):
            return Value(UNDEFINED_VALUE & _mask(var_type.width), var_type.width)
        raise ExecutionError(f"cannot create a local of type {var_type}")

    def _coerce(self, value: Value, var_type: P4Type) -> Value:
        if isinstance(var_type, BitType):
            return Value(value.as_int & _mask(var_type.width), var_type.width)
        if isinstance(var_type, BoolType):
            return Value(value.as_bool, None)
        return value

    # -- statements ---------------------------------------------------------------

    def execute(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.BlockStatement):
            for child in statement.statements:
                self.execute(child)
        elif isinstance(statement, ast.VariableDeclaration):
            self.declare(statement)
        elif isinstance(statement, ast.AssignmentStatement):
            self._assign(statement.lhs, self.evaluate(statement.rhs))
        elif isinstance(statement, ast.IfStatement):
            condition = self.evaluate(statement.cond).as_bool
            if self.interpreter.semantics.flip_negated_conditions and isinstance(
                statement.cond, ast.UnaryOp
            ) and statement.cond.op == "!":
                condition = not condition  # seeded Tofino gateway defect
            if condition:
                self.execute(statement.then_branch)
            elif statement.else_branch is not None:
                self.execute(statement.else_branch)
        elif isinstance(statement, ast.MethodCallStatement):
            self._execute_call(statement.call)
        elif isinstance(statement, ast.ExitStatement):
            raise _ExitSignal()
        elif isinstance(statement, ast.ReturnStatement):
            value = self.evaluate(statement.value) if statement.value is not None else None
            raise _ReturnSignal(value)
        elif isinstance(statement, ast.EmptyStatement):
            return
        else:
            raise ExecutionError(f"cannot execute statement {type(statement).__name__}")

    # -- l-values ---------------------------------------------------------------------

    def _assign(self, lhs: ast.Expression, value: Value) -> None:
        if isinstance(lhs, ast.PathExpression):
            if lhs.name in self.locals:
                var_type = self.local_types.get(lhs.name)
                self.locals[lhs.name] = (
                    self._coerce(value, var_type) if var_type is not None else value
                )
                return
            raise ExecutionError(f"assignment to unknown variable {lhs.name!r}")
        if isinstance(lhs, ast.Member):
            self._assign_member(lhs, value)
            return
        if isinstance(lhs, ast.Slice):
            narrow_limit = self.interpreter.semantics.drop_narrow_slice_writes_below
            width = lhs.high - lhs.low + 1
            if narrow_limit and width < narrow_limit:
                return  # seeded Tofino PHV defect: narrow slice writes vanish
            current = self.evaluate(lhs.expr)
            if current.width is None:
                raise ExecutionError("cannot slice a Boolean value")
            mask = _mask(width) << lhs.low
            new_value = (current.as_int & ~mask) | ((value.as_int & _mask(width)) << lhs.low)
            self._assign(lhs.expr, Value(new_value, current.width))
            return
        raise ExecutionError("unsupported assignment target")

    def _assign_member(self, lhs: ast.Member, value: Value) -> None:
        resolved = self._resolve_member(lhs)
        if resolved is None:
            raise ExecutionError(f"cannot resolve l-value {lhs}")
        kind, owner, field_name = resolved
        if kind == "header_field":
            header: HeaderInstance = owner
            if not header.valid:
                return  # writes to invalid headers are no-ops
            field_type = header.header_type.field_type(field_name)
            masked = value.as_int & _mask(field_type.width)
            if (
                self.interpreter.semantics.truncate_wide_fields
                and field_type.width > 32
            ):
                masked &= _mask(32)  # seeded BMv2 defect
            header.fields[field_name] = masked
            return
        if kind == "scalar":
            self.state.scalars[field_name] = value.as_int
            return
        raise ExecutionError(f"unsupported member assignment {lhs}")

    def _member_string(self, expr: ast.Expression) -> Optional[str]:
        """Dotted path of a member chain, stack elements as ``name[i]``.

        The root path expression (the Headers struct parameter) contributes
        nothing, so ``hdr.hs[1].a`` resolves to ``hs[1].a`` -- the key
        convention :class:`~repro.targets.state.PacketState` uses.
        """

        if isinstance(expr, ast.PathExpression):
            return ""
        if isinstance(expr, ast.Member):
            base = self._member_string(expr.expr)
            if base is None:
                return None
            return f"{base}.{expr.member}" if base else expr.member
        if isinstance(expr, ast.ArrayIndex):
            base = self._member_string(expr.expr)
            if base is None or not isinstance(expr.index, ast.Constant):
                return None
            return f"{base}[{expr.index.value}]"
        return None

    def _resolve_member(self, expr: ast.Member):
        """Resolve ``hdr.h.a``-style members to (kind, owner, field)."""

        path = self._member_string(expr)
        if not path:
            return None
        if "." in path:
            header_name, field_name = path.split(".", 1)
            header = self.state.headers.get(header_name)
            if header is not None and "." not in field_name:
                return ("header_field", header, field_name)
            return None
        if path in self.state.headers:
            return None  # a bare header instance is not a value
        # Any other single-segment member is a struct scalar.  Unknown names
        # resolve too (reads default to 0, writes create the slot): the
        # mid end may add scalar fields -- e.g. the flattened nextIndex
        # counters -- that the input program's packet layout predates.
        return ("scalar", None, path)

    # -- calls -----------------------------------------------------------------------------

    def _execute_call(self, call: ast.MethodCallExpression) -> Optional[Value]:
        target = call.target
        if isinstance(target, ast.Member):
            method = target.member
            if method in ("setValid", "setInvalid"):
                header = self._header_for(target.expr)
                header.valid = method == "setValid"
                return None
            if method == "isValid":
                header = self._header_for(target.expr)
                return Value(header.valid, None)
            if method == "apply":
                if isinstance(target.expr, ast.PathExpression):
                    self._apply_table(target.expr.name)
                    return None
                raise ExecutionError("apply() on a non-table expression")
            if method in ("extract", "emit"):
                # Byte-stream I/O is not modelled; extract marks the header
                # valid (its field values come from the input packet state).
                if call.args and isinstance(call.args[0], (ast.Member, ast.PathExpression)):
                    arg = call.args[0]
                    stack = (
                        self._stack_of(arg.expr)
                        if isinstance(arg, ast.Member) and arg.member == "next"
                        else None
                    )
                    if stack is not None:
                        if method == "extract":
                            self._extract_stack_next(arg.expr, stack)
                        return None
                    header = self._header_for(arg)
                    if method == "extract":
                        header.valid = True
                return None
            if method in ("push_front", "pop_front"):
                stack = self._stack_of(target.expr)
                if stack is None:
                    raise ExecutionError(f"{method} on a non-stack expression")
                if not call.args or not isinstance(call.args[0], ast.Constant):
                    raise ExecutionError(f"{method} needs a constant count")
                element_type, size = self.interpreter.stacks[stack]
                field_names = element_type.field_names()
                count = call.args[0].value
                if method == "push_front":
                    lowered = stack_lowering.lower_push_front(
                        target.expr, field_names, size, count
                    )
                else:
                    lowered = stack_lowering.lower_pop_front(
                        target.expr, field_names, size, count
                    )
                for statement in lowered:
                    self.execute(statement)
                return None
            if method in ("read", "write", "count"):
                self._execute_state_call(method, target, call)
                return None
            raise ExecutionError(f"unknown method {method!r}")
        if isinstance(target, ast.PathExpression):
            if target.name == "NoAction":
                return None
            action = self.actions.get(target.name)
            if action is not None:
                self._invoke_action(action, call.args, entry_args=None)
                return None
            function = self.interpreter.functions.get(target.name)
            if function is not None:
                return self._invoke_function(function, call.args)
            raise ExecutionError(f"call to unknown callee {target.name!r}")
        raise ExecutionError("unsupported call target")

    def _header_for(self, expr: ast.Expression) -> HeaderInstance:
        if isinstance(expr, (ast.Member, ast.ArrayIndex)):
            path = self._member_string(expr)
            if path:
                header = self.state.headers.get(path)
                if header is not None:
                    return header
        raise ExecutionError(f"expression {expr} does not name a header instance")

    # -- header stacks ----------------------------------------------------------------------
    #
    # Native stack operations run the exact statement sequences the correct
    # HeaderStackFlattening lowering emits (repro.p4.stacks), so running a
    # program before or after the (correct) pass gives identical packets.

    def _stack_of(self, expr: ast.Expression) -> Optional[str]:
        path = self._member_string(expr)
        if path and path in self.interpreter.stacks:
            return path
        return None

    def _counter_ref(self, stack: str) -> ast.PathExpression:
        return ast.PathExpression(f"{stack}.$nextIndex")

    def _extract_stack_next(self, stack_expr: ast.Expression, stack: str) -> None:
        _element_type, size = self.interpreter.stacks[stack]
        lowered = stack_lowering.lower_extract_next(
            stack_expr, self._counter_ref(stack), size
        )
        for statement in lowered:
            self.execute(statement)

    # -- registers and counters --------------------------------------------------
    #
    # Semantics deliberately mirror the symbolic interpreter: indices are
    # truncated to STATE_INDEX_WIDTH bits and wrapped modulo the bank size
    # (SwitchState does both), counts are 32-bit read-modify-write
    # increments, and writes are masked to the cell width.

    def _execute_state_call(
        self, method: str, target: ast.Member, call: ast.MethodCallExpression
    ) -> None:
        if self.switch is None or not (
            isinstance(target.expr, ast.PathExpression)
            and target.expr.name in self.switch.banks
        ):
            raise ExecutionError(f"{method} on a non-state expression")
        name = target.expr.name
        width, _values = self.switch.banks[name]
        if method == "count":
            if len(call.args) != 1:
                raise ExecutionError("count takes exactly one argument")
            index = self.evaluate(call.args[0]).as_int
            self.switch.write(name, index, self.switch.read(name, index) + 1)
            return
        if len(call.args) != 2:
            raise ExecutionError(f"{method} takes exactly two arguments")
        if method == "read":
            index = self.evaluate(call.args[1]).as_int
            self._assign(call.args[0], Value(self.switch.read(name, index), width))
            return
        index = self.evaluate(call.args[0]).as_int
        self.switch.write(name, index, self.evaluate(call.args[1]).as_int)

    def _invoke_action(
        self,
        action: ast.ActionDeclaration,
        call_args: Sequence[ast.Expression],
        entry_args: Optional[Sequence[int]],
    ) -> None:
        saved_locals = dict(self.locals)
        saved_types = dict(self.local_types)
        copy_out: List[Tuple[ast.Expression, str]] = []
        directional = [param for param in action.params if param.direction]
        dataplane = [param for param in action.params if not param.direction]

        if call_args:
            for param, arg in zip(action.params, call_args):
                param_type = self.interpreter.types.resolve(param.param_type)
                if param.is_readable:
                    self.locals[param.name] = self._coerce(self.evaluate(arg), param_type)
                else:
                    self.locals[param.name] = self._default_value(param_type)
                self.local_types[param.name] = param_type
                if param.is_writable:
                    copy_out.append((arg, param.name))
        elif entry_args is not None:
            for param, raw in zip(dataplane, entry_args):
                param_type = self.interpreter.types.resolve(param.param_type)
                self.locals[param.name] = self._coerce(Value(raw, None), param_type)
                self.local_types[param.name] = param_type
        elif directional or dataplane:
            for param in action.params:
                param_type = self.interpreter.types.resolve(param.param_type)
                self.locals[param.name] = self._default_value(param_type)
                self.local_types[param.name] = param_type

        exited = False
        try:
            self.execute(action.body)
        except _ExitSignal:
            exited = True
        finally:
            # Copy-out still applies when the action exits (spec clarification
            # triggered by the bug in figure 5f).
            pending = [(arg, self.locals[name]) for arg, name in copy_out]
            self.locals = saved_locals
            self.local_types = saved_types
            for arg, value in pending:
                self._assign(arg, value)
        if exited:
            raise _ExitSignal()

    def _invoke_function(
        self, function: ast.FunctionDeclaration, call_args: Sequence[ast.Expression]
    ) -> Optional[Value]:
        saved_locals = dict(self.locals)
        saved_types = dict(self.local_types)
        copy_out: List[Tuple[ast.Expression, str]] = []
        for param, arg in zip(function.params, call_args):
            param_type = self.interpreter.types.resolve(param.param_type)
            if param.is_readable:
                self.locals[param.name] = self._coerce(self.evaluate(arg), param_type)
            else:
                self.locals[param.name] = self._default_value(param_type)
            self.local_types[param.name] = param_type
            if param.is_writable:
                copy_out.append((arg, param.name))
        result: Optional[Value] = None
        try:
            self.execute(function.body)
        except _ReturnSignal as signal:
            result = signal.value
        finally:
            pending = [(arg, self.locals[name]) for arg, name in copy_out]
            self.locals = saved_locals
            self.local_types = saved_types
            for arg, value in pending:
                self._assign(arg, value)
        return result

    def _apply_table(self, table_name: str) -> None:
        table = self.tables.get(table_name)
        if table is None:
            raise ExecutionError(f"apply() on unknown table {table_name!r}")
        key_values = tuple(self.evaluate(key.expr).as_int for key in table.keys)
        chosen: Optional[TableEntry] = None
        for entry in self.entries.get(table_name, []):
            if tuple(entry.key) == key_values:
                chosen = entry
                break
        if chosen is not None:
            action_name = chosen.action
            entry_args: Optional[Sequence[int]] = chosen.action_args
        elif self.interpreter.semantics.miss_runs_first_action and table.actions:
            # Seeded eBPF defect: the jump table emitted for the lookup
            # result has no miss branch, so a miss falls through into the
            # first action's block with zeroed data-plane arguments.
            action_name = table.actions[0].name
            fallback = self.actions.get(action_name)
            entry_args = (
                tuple(0 for p in fallback.params if not p.direction)
                if fallback is not None
                else None
            )
        else:
            default = table.default_action or ast.ActionRef("NoAction")
            action_name = default.name
            entry_args = tuple(
                self.evaluate(arg).as_int for arg in default.args
            ) or None
        if action_name == "NoAction":
            return
        action = self.actions.get(action_name)
        if action is None:
            raise ExecutionError(
                f"table {table_name!r} selected unknown action {action_name!r}"
            )
        self._invoke_action(action, call_args=(), entry_args=entry_args or ())

    # -- expressions ------------------------------------------------------------------------

    def evaluate(self, expr: ast.Expression) -> Value:
        if isinstance(expr, ast.Constant):
            # Width-less literals behave like 32-bit values unless a binary
            # operator adapts them to its other operand (see
            # :meth:`_evaluate_binary`), matching the symbolic interpreter.
            return Value(expr.value, expr.width if expr.width is not None else 32)
        if isinstance(expr, ast.BoolLiteral):
            return Value(expr.value, None)
        if isinstance(expr, ast.PathExpression):
            if expr.name in self.locals:
                return self.locals[expr.name]
            raise ExecutionError(f"read of unknown variable {expr.name!r}")
        if isinstance(expr, ast.Member):
            return self._evaluate_member(expr)
        if isinstance(expr, ast.Slice):
            base = self.evaluate(expr.expr)
            width = expr.high - expr.low + 1
            return Value((base.as_int >> expr.low) & _mask(width), width)
        if isinstance(expr, ast.UnaryOp):
            return self._evaluate_unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._evaluate_binary(expr)
        if isinstance(expr, ast.Ternary):
            if self.evaluate(expr.cond).as_bool:
                return self.evaluate(expr.then)
            return self.evaluate(expr.orelse)
        if isinstance(expr, ast.Cast):
            target = self.interpreter.types.resolve(expr.target)
            value = self.evaluate(expr.expr)
            if isinstance(target, BitType):
                if (
                    self.interpreter.semantics.narrowing_cast_high_bits
                    and value.width is not None
                    and value.width > target.width
                ):
                    # Seeded eBPF defect: the narrowing move keeps the high
                    # end of the register instead of masking the low bits.
                    shifted = value.as_int >> (value.width - target.width)
                    return Value(shifted & _mask(target.width), target.width)
                return Value(value.as_int & _mask(target.width), target.width)
            if isinstance(target, BoolType):
                return Value(bool(value.as_int), None)
            raise ExecutionError(f"unsupported cast to {target}")
        if isinstance(expr, ast.MethodCallExpression):
            result = self._execute_call(expr)
            if result is None:
                raise ExecutionError("void call used as an expression")
            return result
        raise ExecutionError(f"cannot evaluate expression {type(expr).__name__}")

    def _evaluate_member(self, expr: ast.Member) -> Value:
        # ``stack.last.<field>``: evaluate the same constant-indexed ternary
        # chain the flattening pass emits, against the nextIndex counter.
        if isinstance(expr.expr, ast.Member) and expr.expr.member == "last":
            stack = self._stack_of(expr.expr.expr)
            if stack is not None:
                _element_type, size = self.interpreter.stacks[stack]
                chain = stack_lowering.last_field_expr(
                    expr.expr.expr, self._counter_ref(stack), expr.member, size
                )
                return self.evaluate(chain)
        resolved = self._resolve_member(expr)
        if resolved is None:
            raise ExecutionError(f"cannot evaluate member {expr}")
        kind, owner, field_name = resolved
        if kind == "header_field":
            header: HeaderInstance = owner
            field_type = header.header_type.field_type(field_name)
            if field_type is None:
                raise ExecutionError(
                    f"header {header.header_type.name} has no field {field_name!r}"
                )
            if not header.valid:
                return Value(UNDEFINED_VALUE & _mask(field_type.width), field_type.width)
            raw = header.get(field_name)
            if (
                self.interpreter.semantics.swap_16bit_field_reads
                and field_type.width == 16
            ):
                # Seeded eBPF defect: a missing ntohs() on 16-bit loads.
                raw = ((raw & 0xFF) << 8) | (raw >> 8)
            return Value(raw, field_type.width)
        if kind == "scalar":
            return Value(self.state.scalars.get(field_name, 0), None)
        raise ExecutionError(f"unsupported member read {expr}")

    def _evaluate_unary(self, expr: ast.UnaryOp) -> Value:
        operand = self.evaluate(expr.expr)
        if expr.op == "!":
            return Value(not operand.as_bool, None)
        if operand.width is None:
            raise ExecutionError(f"operator {expr.op} needs a sized operand")
        if expr.op == "~":
            return Value((~operand.as_int) & _mask(operand.width), operand.width)
        if expr.op == "-":
            return Value((-operand.as_int) & _mask(operand.width), operand.width)
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    def _evaluate_binary(self, expr: ast.BinaryOp) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            left = self.evaluate(expr.left).as_bool
            if op == "&&":
                return Value(left and self.evaluate(expr.right).as_bool, None)
            return Value(left or self.evaluate(expr.right).as_bool, None)

        left = self.evaluate(expr.left)
        right = self.evaluate(expr.right)
        # Width-less literals adapt to the width of the other operand, as in
        # P4-16's treatment of arbitrary-precision literals.
        if (
            isinstance(expr.left, ast.Constant)
            and expr.left.width is None
            and right.width is not None
        ):
            left = Value(left.as_int & _mask(right.width), right.width)
        elif (
            isinstance(expr.right, ast.Constant)
            and expr.right.width is None
            and left.width is not None
        ):
            right = Value(right.as_int & _mask(left.width), left.width)
        width = left.width if left.width is not None else right.width

        if op in ("==", "!="):
            equal = left.as_int == right.as_int
            return Value(equal if op == "==" else not equal, None)
        if op in ("<", "<=", ">", ">="):
            table = {
                "<": left.as_int < right.as_int,
                "<=": left.as_int <= right.as_int,
                ">": left.as_int > right.as_int,
                ">=": left.as_int >= right.as_int,
            }
            return Value(table[op], None)
        if op == "++":
            if left.width is None or right.width is None:
                raise ExecutionError("concatenation needs sized operands")
            return Value(
                (left.as_int << right.width) | right.as_int, left.width + right.width
            )

        a, b = left.as_int, right.as_int
        if op == "+":
            result = a + b
        elif op == "-":
            result = a - b
        elif op == "*":
            result = a * b
        elif op == "/":
            result = a // b if b != 0 else (_mask(width) if width else 0)
        elif op == "%":
            result = a % b if b != 0 else a
        elif op == "&":
            result = a & b
        elif op == "|":
            result = a | b
        elif op == "^":
            result = a ^ b
        elif op == "<<":
            result = 0 if (width is not None and b >= width) else a << b
        elif op == ">>":
            result = 0 if (width is not None and b >= width) else a >> b
        else:
            raise ExecutionError(f"unknown binary operator {op!r}")
        if width is not None:
            result &= _mask(width)
        return Value(result, width)
