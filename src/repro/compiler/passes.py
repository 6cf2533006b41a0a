"""Pass infrastructure shared by the front end, mid end and back ends."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from repro.compiler.coverage import CoverageMap
from repro.compiler.options import CompilerOptions
from repro.p4 import ast


@dataclass
class PassContext:
    """State shared between passes of one compilation run."""

    options: CompilerOptions
    #: Free-form notes passes leave for later passes (e.g. feature flags).
    notes: Dict[str, object] = field(default_factory=dict)
    #: Which passes fired and which rewrite rules matched during this run.
    coverage: CoverageMap = field(default_factory=CoverageMap)
    _name_counter: Iterator[int] = field(default_factory=lambda: itertools.count())

    def fresh_name(self, prefix: str) -> str:
        """Return a fresh variable name with the given prefix."""

        return f"{prefix}_{next(self._name_counter)}"

    def bug_enabled(self, bug_id: str) -> bool:
        return self.options.bug_enabled(bug_id)

    def record_rule(self, pass_name: str, rule: str, count: int = 1) -> None:
        """Record one firing of a named rewrite rule of ``pass_name``."""

        self.coverage.record_rule(pass_name, rule, count)

    def rule_recorder(self, pass_name: str) -> Callable[..., None]:
        """A ``recorder(rule, count=1)`` closure for helpers without a context.

        Passes hand this to their visitor/rewriter helper classes so rewrite
        sites can count rule hits without threading the whole context through.
        """

        def record(rule: str, count: int = 1) -> None:
            self.coverage.record_rule(pass_name, rule, count)

        return record


def null_recorder(rule: str, count: int = 1) -> None:
    """Recorder that drops everything (for helpers run outside a pipeline)."""


class CompilerPass:
    """Base class for compiler passes.

    A pass takes a program and returns a program, copy-on-write:

    * it never writes to a node it received, because the pass manager keeps
      every earlier snapshot for translation validation;
    * it copies (``dataclasses.replace``) only the nodes it rewrites and
      their ancestors, and shares every other node with its input;
    * it returns its input object itself when it changed nothing, which
      the pass manager reads as "unchanged" and does not re-emit.

    :class:`~repro.compiler.visitor.Transformer` and
    :func:`~repro.compiler.visitor.replace_items` keep the contract for
    most passes.  The two lowering passes, HeaderStackFlattening and
    StatefulLowering, instead clone a program that has stacks or state,
    lower that copy in place, and return their input when they lowered
    nothing.
    """

    #: Human-readable pass name (matches the names used in bug reports).
    name: str = "UnnamedPass"
    #: Where the pass lives; used for bug localisation statistics.
    location: str = "front_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
