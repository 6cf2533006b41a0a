"""Compiler configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set


@dataclass
class CompilerOptions:
    """Options controlling a compilation run.

    ``enabled_bugs`` lists seeded-bug identifiers from
    :data:`repro.compiler.bugs.BUG_CATALOG` that should be active during this
    run.  It is the only option: every run applies the whole pipeline and
    records a snapshot after every pass (the p4test ``--top4`` behaviour),
    and a back end is chosen by its target class, not by an option.
    """

    enabled_bugs: Set[str] = field(default_factory=set)

    def bug_enabled(self, bug_id: str) -> bool:
        return bug_id in self.enabled_bugs
