"""Generic AST transformation framework for compiler passes.

:class:`Transformer` rebuilds an AST bottom-up.  Subclasses override
``visit_<NodeClass>`` methods; the default behaviour reconstructs the node
with transformed children, so passes only need code for the node types they
care about.

Dispatch is by the node's exact class, through a table each transformer
class fills once per node class: the ``visit_`` method named after the
class if it has one, else :meth:`Transformer.generic_visit`, unless the
transformer cannot change the node.  That is one rule: a transformer class
returns a node untouched, without walking it, when no node class reachable
from the node's class has a ``visit_`` method on the transformer class.
A class reaches itself and, through the annotated fields of the
:mod:`repro.p4.ast` dataclasses, every node class a field can hold (every
subclass of a field's annotated node class), transitively; the sets are
computed once, at import.  So a statement transformer never enters an
expression, a table, an action reference, a key or a parameter, and one
with ``visit_PathExpression`` still reaches the paths in a table key.
A transformer class must therefore not override
:meth:`~Transformer.generic_visit` to act on nodes it has no ``visit_``
method for.  Transformer classes live at module level: the tables belong
to the class, and a class created per call would rebuild them every time.

Every pass is copy-on-write, and transformers are how most of them get
there.  A pass never writes to a node it received.  It copies only the
nodes it rewrites and their ancestors, and shares every other node with
its input; :meth:`Transformer.generic_visit` returns a node itself when
no child changed.  A pass that changed nothing returns its input object,
which the pass manager reads as "unchanged" and does not re-emit.  The
snapshots of one compilation therefore share every unchanged subtree, and
each of them stays valid for translation validation because nothing
writes to a node once a pass has returned it.  A ``visit_`` method that
rebuilds a container keeps the contract with :func:`replace_items`.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Callable, Dict, FrozenSet, List

from repro.p4 import ast


def replace_items(node: ast.Node, name: str, items: List[Any]) -> ast.Node:
    """``node`` with its list field ``name`` set to ``items``, copy-on-write.

    Returns ``node`` itself when ``items`` holds exactly the objects the
    field already holds, in order; otherwise a shallow copy carrying the
    new list.
    """

    old = getattr(node, name)
    if len(items) == len(old) and all(new is item for new, item in zip(items, old)):
        return node
    return dataclasses.replace(node, **{name: items})


def map_controls(
    program: ast.Program,
    rewrite: Callable[[ast.ControlDeclaration], ast.ControlDeclaration],
) -> ast.Program:
    """``program`` with ``rewrite`` applied to every control, copy-on-write."""

    return replace_items(
        program,
        "declarations",
        [
            rewrite(decl) if isinstance(decl, ast.ControlDeclaration) else decl
            for decl in program.declarations
        ],
    )


def _reachable_names() -> Dict[type, FrozenSet[str]]:
    """Each AST dataclass -> the names of the node classes reachable from it."""

    classes = [
        value
        for value in vars(ast).values()
        if isinstance(value, type)
        and issubclass(value, ast.Node)
        and dataclasses.is_dataclass(value)
    ]

    def held(hint: Any) -> List[type]:
        if isinstance(hint, type):
            if issubclass(hint, ast.Node):
                return [cls for cls in classes if issubclass(cls, hint)]
            return []
        return [cls for arg in typing.get_args(hint) for cls in held(arg)]

    children = {
        cls: {child for hint in typing.get_type_hints(cls).values() for child in held(hint)}
        for cls in classes
    }
    reachable = {}
    for cls in classes:
        seen = {cls}
        stack = [cls]
        while stack:
            for child in children[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        reachable[cls] = frozenset(node_class.__name__ for node_class in seen)
    return reachable


#: Node class -> names of the node classes reachable from it, itself included.
_REACHABLE = _reachable_names()


def _unchanged(transformer: "Transformer", node: ast.Node) -> ast.Node:
    return node


class Transformer:
    """Rebuild an AST, dispatching to ``visit_<ClassName>`` methods."""

    #: Node class -> the function that transforms it, per transformer class.
    _dispatch: Dict[type, Callable[["Transformer", ast.Node], Any]] = {}
    #: Names of the node classes this transformer class has ``visit_`` methods for.
    _visited: FrozenSet[str] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._dispatch = {}
        cls._visited = frozenset(
            name[len("visit_"):] for name in dir(cls) if name.startswith("visit_")
        )

    @classmethod
    def _visitor(cls, node_class: type) -> Callable[["Transformer", ast.Node], Any]:
        method = getattr(cls, f"visit_{node_class.__name__}", None)
        if method is not None:
            return method
        reachable = _REACHABLE.get(node_class)
        if reachable is not None and reachable.isdisjoint(cls._visited):
            return _unchanged
        return cls.generic_visit

    def transform(self, node: ast.Node) -> Any:
        """Transform a single node (dispatch on its dynamic type)."""

        node_class = type(node)
        try:
            visit = self._dispatch[node_class]
        except KeyError:
            visit = self._dispatch[node_class] = self._visitor(node_class)
        return visit(self, node)

    def transform_program(self, program: ast.Program) -> ast.Program:
        """Transform a whole program."""

        result = self.transform(program)
        if not isinstance(result, ast.Program):  # pragma: no cover - defensive
            raise TypeError("transforming a Program must yield a Program")
        return result

    # -- default behaviour ----------------------------------------------------

    def generic_visit(self, node: ast.Node) -> Any:
        """Rebuild ``node`` with transformed children."""

        names = ast.node_field_names(type(node))
        if names is None:
            return node
        changed = False
        new_values = {}
        values = node.__dict__
        for name in names:
            value = values[name]
            new_value = self._transform_value(value)
            new_values[name] = new_value
            if new_value is not value:
                changed = True
        if not changed:
            return node
        return type(node)(**new_values)

    def _transform_value(self, value: Any) -> Any:
        if isinstance(value, ast.Node):
            return self.transform(value)
        if isinstance(value, list):
            out: List[Any] = []
            changed = False
            for item in value:
                new_item = self._transform_value(item)
                if new_item is None and isinstance(item, ast.Statement):
                    # Returning None from a statement visit deletes the statement.
                    changed = True
                    continue
                if isinstance(new_item, list) and isinstance(item, ast.Statement):
                    # Returning a list splices several statements in place of one.
                    out.extend(new_item)
                    changed = True
                    continue
                out.append(new_item)
                if new_item is not item:
                    changed = True
            return out if changed else value
        if isinstance(value, tuple):
            transformed = tuple(self._transform_value(item) for item in value)
            if any(new is not old for new, old in zip(transformed, value)):
                return transformed
            return value
        return value
