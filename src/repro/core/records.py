"""One JSON codec for every record that crosses a wire or lands in a store.

A :class:`Record` is a dataclass whose JSON form its fields define:
:meth:`Record.to_dict` writes one key per field, in declaration order,
and :meth:`Record.from_dict` rebuilds each field with a decoder derived
once per class from its type hints.  Nested dataclasses become objects,
enums their values, tuples lists; a field the payload lacks takes its
default, and unknown keys are ignored.  A malformed payload raises
``TypeError`` or ``ValueError``, the errors on which the coordinator
refuses an outcome and the store's resume skips a line.  The engine's
units and outcomes and :class:`~repro.core.bugs.BugReport` are records.

The module imports nothing from the package, so any module may use it.
"""

from __future__ import annotations

import functools
import operator
import typing
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Callable, Dict, Tuple


def _identity(value):
    return value


def _optional(convert: Callable) -> Callable:
    if convert is _identity:
        return convert
    return lambda value: None if value is None else convert(value)


@functools.lru_cache(maxsize=None)
def _codec(hint) -> Tuple[Callable, Callable]:
    """The ``(encode, decode)`` pair of one type hint."""

    if is_dataclass(hint):  # a Record or a plain dataclass
        return functools.partial(_encode, hint), functools.partial(_decode, hint)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return operator.attrgetter("value"), hint
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        encode, decode = _codec(args[0])
        return _optional(encode), _optional(decode)
    if origin in (list, tuple):  # List[X], Tuple[X, ...] and Tuple[X, X]
        encode, decode = _codec(args[0])
        if encode is decode is _identity:
            return list, origin
        return (
            lambda items: [encode(item) for item in items],
            lambda items: origin(map(decode, items)),
        )
    if origin is dict:
        encode, decode = _codec(args[1])
        if encode is decode is _identity:
            return dict, dict
        return (
            lambda items: {key: encode(value) for key, value in items.items()},
            lambda items: {key: decode(value) for key, value in dict(items).items()},
        )
    return _identity, _identity


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> Tuple[Tuple[str, Callable, Callable], ...]:
    """``(name, encode, decode)`` of each field of dataclass ``cls``."""

    hints = typing.get_type_hints(cls)
    return tuple((entry.name, *_codec(hints[entry.name])) for entry in fields(cls))


def _encode(cls: type, record) -> Dict[str, object]:
    return {name: encode(getattr(record, name)) for name, encode, _ in _plan(cls)}


def _decode(cls: type, payload):
    if not isinstance(payload, dict):
        raise TypeError(f"{cls.__name__} payload is a {type(payload).__name__}")
    return cls(
        **{
            name: decode(payload[name])
            for name, _, decode in _plan(cls)
            if name in payload
        }
    )


class Record:
    """Base of a dataclass whose JSON form its fields define."""

    def to_dict(self) -> Dict[str, object]:
        return _encode(type(self), self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]):
        return _decode(cls, payload)
