"""The P4-16 subset type system.

Types are immutable values.  The subset contains exactly the types the
random program generator and symbolic interpreter need:

* ``bit<N>`` -- unsigned fixed-width integers (:class:`BitType`),
* ``bool`` (:class:`BoolType`),
* ``void`` for functions without a return value (:class:`VoidType`),
* ``header`` types -- ordered ``bit<N>`` fields plus a validity bit
  (:class:`HeaderType`),
* ``struct`` types -- ordered fields of any type (:class:`StructType`).

Type *names* are resolved by the type checker; the AST stores
:class:`TypeName` placeholders until then.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class P4Type:
    """Base class for all types."""


@dataclass(frozen=True)
class BitType(P4Type):
    """``bit<width>``: an unsigned integer of fixed width."""

    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"bit width must be positive, got {self.width}")

    def __str__(self) -> str:
        return f"bit<{self.width}>"


@dataclass(frozen=True)
class BoolType(P4Type):
    """The Boolean type."""

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class VoidType(P4Type):
    """Return type of functions and actions that return nothing."""

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class TypeName(P4Type):
    """An unresolved reference to a named type (header/struct)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class HeaderType(P4Type):
    """A packet header: named ``bit<N>`` fields plus an implicit validity bit."""

    name: str
    fields: Tuple[Tuple[str, BitType], ...]

    def __str__(self) -> str:
        return self.name

    def field_type(self, field: str) -> Optional[BitType]:
        for field_name, field_ty in self.fields:
            if field_name == field:
                return field_ty
        return None

    def field_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.fields)


@dataclass(frozen=True)
class HeaderStackType(P4Type):
    """A header stack ``H h[N]``: ``size`` elements of one header type.

    Before name resolution the ``element`` is a :class:`TypeName`; the type
    checker replaces it with the resolved :class:`HeaderType`.  Each element
    carries its own validity bit; the stack additionally owns a ``nextIndex``
    counter that parser ``extract(stack.next)`` calls advance (P4-16 §8.17).
    The counter is internal state -- it is not an observable output of a
    programmable block.
    """

    element: P4Type
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"header stack size must be positive, got {self.size}")

    def __str__(self) -> str:
        return f"{self.element}[{self.size}]"


@dataclass(frozen=True)
class RegisterType(P4Type):
    """A register extern ``register<bit<W>>(N)``: persistent switch state.

    Registers survive across packets: the contents are *not* reset when a
    new packet enters the pipeline, which is what makes multi-packet test
    sequences (and state-aware equivalence) necessary.  Access is via
    ``read(dst, index)`` / ``write(index, value)`` method calls, checked by
    the type checker to control-apply contexts with in-range indices.
    """

    width: int
    size: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"register width must be positive, got {self.width}")
        if self.size <= 0:
            raise ValueError(f"register size must be positive, got {self.size}")

    def __str__(self) -> str:
        return f"register<bit<{self.width}>>({self.size})"


@dataclass(frozen=True)
class CounterType(P4Type):
    """A counter extern ``counter(N)``: a bank of packet counters.

    Counters only expose ``count(index)``; the mid end lowers them onto
    registers (a read-modify-write increment), so the symbolic and concrete
    interpreters share one state model for both externs.
    """

    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"counter size must be positive, got {self.size}")

    def __str__(self) -> str:
        return f"counter({self.size})"


@dataclass(frozen=True)
class StructType(P4Type):
    """A struct: named fields of arbitrary types (headers, bits, bools, structs)."""

    name: str
    fields: Tuple[Tuple[str, P4Type], ...]

    def __str__(self) -> str:
        return self.name

    def field_type(self, field: str) -> Optional[P4Type]:
        for field_name, field_ty in self.fields:
            if field_name == field:
                return field_ty
        return None

    def field_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.fields)


def composite_field_type(composite: P4Type, field: str) -> Optional[P4Type]:
    """Look up a field type on a header or struct, None for anything else."""

    if isinstance(composite, (HeaderType, StructType)):
        return composite.field_type(field)
    return None


class TypeEnvironment:
    """Mapping of declared type names to resolved types."""

    def __init__(self) -> None:
        self._types: Dict[str, P4Type] = {}

    def declare(self, name: str, declared_type: P4Type) -> None:
        if name in self._types:
            raise ValueError(f"type {name!r} is declared twice")
        self._types[name] = declared_type

    def lookup(self, name: str) -> Optional[P4Type]:
        return self._types.get(name)

    def resolve(self, type_ref: P4Type) -> P4Type:
        """Resolve :class:`TypeName` references; other types are returned as-is."""

        if isinstance(type_ref, TypeName):
            resolved = self._types.get(type_ref.name)
            if resolved is None:
                raise KeyError(f"unknown type {type_ref.name!r}")
            return resolved
        return type_ref

    def names(self) -> Tuple[str, ...]:
        return tuple(self._types)
