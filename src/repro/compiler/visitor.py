"""Generic AST transformation framework for compiler passes.

:class:`Transformer` rebuilds an AST bottom-up.  Subclasses override
``visit_<NodeClass>`` methods; the default behaviour reconstructs the node
with transformed children, so passes only need code for the node types they
care about.  Transformers never mutate the input tree, which lets the pass
manager keep the "before" program for translation validation.
"""

from __future__ import annotations

from typing import Any, List

from repro.p4 import ast


class Transformer:
    """Rebuild an AST, dispatching to ``visit_<ClassName>`` methods."""

    def transform(self, node: ast.Node) -> Any:
        """Transform a single node (dispatch on its dynamic type)."""

        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

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


class Visitor:
    """Read-only traversal with ``visit_<ClassName>`` hooks."""

    def visit(self, node: ast.Node) -> None:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            method(node)
        self.generic_visit(node)

    def generic_visit(self, node: ast.Node) -> None:
        for value in vars(node).values():
            self._visit_value(value)

    def _visit_value(self, value: Any) -> None:
        if isinstance(value, ast.Node):
            self.visit(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._visit_value(item)
