"""Compiler configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set


@dataclass
class CompilerOptions:
    """Options controlling a compilation run.

    ``enabled_bugs`` lists seeded-bug identifiers from
    :data:`repro.compiler.bugs.BUG_CATALOG` that should be active during this
    run.  ``skip_passes`` supports the Different-Optimization-Levels style of
    testing (paper §2.1) by selectively omitting passes.
    """

    enabled_bugs: Set[str] = field(default_factory=set)
    skip_passes: Set[str] = field(default_factory=set)
    #: Emit a P4 snapshot after every pass (the p4test ``--top4`` behaviour).
    emit_after_each_pass: bool = True
    #: Target name; back ends use it to pick their own pass list.
    target: str = "bmv2"

    def bug_enabled(self, bug_id: str) -> bool:
        return bug_id in self.enabled_bugs
