"""Packet state and control-plane configuration shared by all targets.

The observable input/output of the programs in this reproduction is the
``Headers`` struct passed ``inout`` to the programmable blocks: a set of
header instances, each with a validity bit and named ``bit<N>`` fields.
:class:`PacketState` models exactly that, which is what the STF/PTF test
frameworks compare.

Control-plane state is a list of :class:`TableEntry` records, the
reproduction's stand-in for the P4Runtime table configuration of figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.p4 import ast
from repro.p4.registers import COUNTER_WIDTH, STATE_INDEX_WIDTH
from repro.p4.types import (
    BitType,
    HeaderStackType,
    HeaderType,
    StructType,
    TypeEnvironment,
)
from repro.p4.typecheck import checked_types


#: The value a target reads from uninitialised storage (an unset local, a
#: field of an invalid header).  The symbolic oracle fixes undefined reads
#: to the same value when it computes expected outputs, so a correct
#: compiler never produces a mismatch from them.
UNDEFINED_VALUE = 0


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass
class HeaderInstance:
    """A single header instance: validity plus field values."""

    header_type: HeaderType
    valid: bool = True
    fields: Dict[str, int] = field(default_factory=dict)

    def get(self, field_name: str) -> int:
        return self.fields.get(field_name, 0)

    def set(self, field_name: str, value: int) -> None:
        field_type = self.header_type.field_type(field_name)
        if field_type is None:
            raise KeyError(f"header {self.header_type.name} has no field {field_name!r}")
        self.fields[field_name] = value & _mask(field_type.width)

    def copy(self) -> "HeaderInstance":
        return HeaderInstance(self.header_type, self.valid, dict(self.fields))


@dataclass
class PacketState:
    """The contents of the ``Headers`` struct for one packet."""

    headers: Dict[str, HeaderInstance] = field(default_factory=dict)
    #: Scalar struct members (bit/bool fields directly inside the struct).
    scalars: Dict[str, int] = field(default_factory=dict)

    def copy(self) -> "PacketState":
        return PacketState(
            headers={name: header.copy() for name, header in self.headers.items()},
            scalars=dict(self.scalars),
        )

    # -- value access by dotted path -----------------------------------------

    def read(self, path: str) -> int:
        """Read ``<header>.<field>`` or a scalar member."""

        if "." in path:
            header_name, field_name = path.split(".", 1)
            header = self.headers.get(header_name)
            if header is None:
                raise KeyError(f"unknown header instance {header_name!r}")
            return header.get(field_name)
        return self.scalars.get(path, 0)

    def write(self, path: str, value: int) -> None:
        if "." in path:
            header_name, field_name = path.split(".", 1)
            header = self.headers.get(header_name)
            if header is None:
                raise KeyError(f"unknown header instance {header_name!r}")
            header.set(field_name, value)
            return
        self.scalars[path] = value

    def observable(self) -> Dict[str, object]:
        """Flatten to a comparable dictionary (the STF/PTF oracle format).

        Fields of invalid headers are reported as ``None`` ("invalid"), which
        matches the paper's header-validity semantics: if an invalid header
        is part of the final output, all of its fields are invalid too.
        """

        out: Dict[str, object] = dict(self.scalars)
        for header_name, header in self.headers.items():
            out[f"{header_name}.$valid"] = header.valid
            for field_name, _ in header.header_type.fields:
                key = f"{header_name}.{field_name}"
                out[key] = header.get(field_name) if header.valid else None
        return out


@dataclass
class SwitchState:
    """Register files and counter banks that survive across packets.

    A :class:`PacketState` lives for exactly one packet; a ``SwitchState``
    lives for a whole packet *sequence*.  Back ends hold one instance per
    installed program and thread it through every
    :meth:`~repro.targets.execution.ConcreteInterpreter.run` call, which is
    what makes multi-packet tests able to observe stateful miscompilations.

    Counters are stored as register banks of :data:`COUNTER_WIDTH`-bit
    cells under their declared name -- the same convention the
    ``StatefulLowering`` mid-end pass uses, so bank names (and therefore
    observable state keys) are identical before and after lowering.
    """

    #: bank name -> (cell width, cell values).
    banks: Dict[str, Tuple[int, List[int]]] = field(default_factory=dict)
    #: (bank, cell) pairs written since the last :meth:`commit` -- scratch
    #: bookkeeping for end-of-packet effects, never part of the comparison.
    _dirty: set = field(default_factory=set, repr=False, compare=False)

    @classmethod
    def for_program(cls, program: ast.Program) -> "SwitchState":
        """A zero-initialised state with one bank per declared register/counter."""

        state = cls()
        for control in program.controls():
            for local in control.locals:
                if isinstance(local, ast.RegisterDeclaration):
                    state.declare(local.name, local.width, local.size)
                elif isinstance(local, ast.CounterDeclaration):
                    state.declare(local.name, COUNTER_WIDTH, local.size)
        return state

    def declare(self, name: str, width: int, size: int) -> None:
        if name not in self.banks:
            self.banks[name] = (width, [0] * size)

    def _wrap(self, name: str, index: int) -> int:
        _width, values = self.banks[name]
        return (index & _mask(STATE_INDEX_WIDTH)) % len(values)

    def read(self, name: str, index: int) -> int:
        width, values = self.banks[name]
        return values[self._wrap(name, index)]

    def write(self, name: str, index: int, value: int) -> None:
        width, values = self.banks[name]
        cell = self._wrap(name, index)
        values[cell] = value & _mask(width)
        self._dirty.add((name, cell))

    def commit(self, drop_high_byte: bool = False) -> None:
        """End-of-packet flush of the cells written during the run.

        The correct flush is the identity.  With ``drop_high_byte`` (the
        seeded ``ebpf_register_write_drops_high_byte`` back-end defect) the
        persisted map value is one byte too small, so every written cell
        wider than a byte loses its high byte -- the in-packet read path
        used the still-correct scratch value, which is why only the *next*
        packet of a sequence can observe the loss.
        """

        if drop_high_byte:
            for name, cell in self._dirty:
                width, values = self.banks[name]
                if width > 8:
                    values[cell] &= _mask(width - 8)
        self._dirty.clear()

    def copy(self) -> "SwitchState":
        return SwitchState(
            banks={name: (width, list(values)) for name, (width, values) in self.banks.items()}
        )

    def reset(self) -> None:
        """Back to power-on: every cell zero (the start of a new sequence)."""

        for _width, values in self.banks.values():
            for index in range(len(values)):
                values[index] = 0
        self._dirty.clear()

    def observable(self) -> Dict[str, int]:
        """Flatten to the ``$state.<bank>[<i>]`` paths the oracles compare."""

        out: Dict[str, int] = {}
        for name, (_width, values) in self.banks.items():
            for index, value in enumerate(values):
                out[f"$state.{name}[{index}]"] = value
        return out


@dataclass(frozen=True)
class TableEntry:
    """One control-plane match-action entry (exact match only)."""

    table: str
    key: Tuple[int, ...]
    action: str
    action_args: Tuple[int, ...] = ()


def packet_layout(
    program: ast.Program,
    struct_param_type: str,
    valid: bool = True,
    source: Optional[str] = None,
) -> PacketState:
    """The zero-valued :class:`PacketState` of a program's ``Headers`` struct.

    Resolving the layout typechecks the program (memoised by ``source``, its
    emitted source, when given), so callers that build many packets of one
    program resolve it once and fill a copy per packet
    (:meth:`repro.core.testgen.GeneratedTest.input_packet`).
    """

    types = checked_types(program, source)
    struct_type = types.lookup(struct_param_type)
    if not isinstance(struct_type, StructType):
        raise KeyError(f"{struct_param_type!r} is not a declared struct")
    state = PacketState()

    def add_header(key: str, instance: HeaderInstance) -> None:
        # Stack elements share the flat header namespace under synthesised
        # ``<field>[<i>]`` keys, so a struct field literally named like one
        # (legal in a hand-built AST) would silently shadow -- or be
        # shadowed by -- the element.  Refuse instead of aliasing state.
        if key in state.headers:
            raise ValueError(
                f"packet-state key {key!r} already taken: a header field "
                "collides with a stack element's synthesised name"
            )
        state.headers[key] = instance

    for field_name, field_type in struct_type.fields:
        resolved = types.resolve(field_type)
        if isinstance(resolved, HeaderType):
            add_header(field_name, HeaderInstance(resolved, valid=valid))
        elif isinstance(resolved, HeaderStackType):
            # One instance per element, addressed as ``<field>[<i>]`` --
            # the same dotted-path convention the symbolic semantics use.
            element_type = types.resolve(resolved.element)
            for index in range(resolved.size):
                add_header(
                    f"{field_name}[{index}]", HeaderInstance(element_type, valid=valid)
                )
        elif isinstance(resolved, BitType):
            state.scalars[field_name] = 0
    return state


def build_packet_state(
    program: ast.Program,
    struct_param_type: str,
    values: Optional[Dict[str, int]] = None,
    valid: bool = True,
) -> PacketState:
    """Construct a :class:`PacketState` for the given ``Headers`` struct type.

    ``values`` maps dotted field paths (``h.a``) to initial values; fields
    not mentioned start at zero.
    """

    state = packet_layout(program, struct_param_type, valid)
    for path, value in (values or {}).items():
        state.write(path, value)
    return state
