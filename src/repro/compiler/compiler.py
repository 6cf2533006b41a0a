"""The compiler facade: front end + mid end pipelines.

:class:`P4Compiler` assembles the default pass pipeline (the one ``p4test``
exercises in the paper) and runs it through the :class:`PassManager`.
Back ends (:mod:`repro.targets`) consume the resulting mid-end program and
apply their own target-specific passes.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Union

from repro.compiler.bugs import BUG_CATALOG, LOCATION_BACKEND
from repro.compiler.frontend import (
    FRONTEND_PASSES,
    TypeChecking,
    TypeCheckingPost,
)
from repro.compiler.midend import MIDEND_PASSES
from repro.compiler.options import CompilerOptions
from repro.compiler.pass_manager import CompilationResult, PassManager
from repro.compiler.passes import CompilerPass
from repro.metrics import MISSING, LruCache
from repro.p4 import ast
from repro.p4.parser import parse_program


class P4Compiler:
    """Compile P4 programs through the front- and mid-end pipelines."""

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions()

    # -- pipeline construction ------------------------------------------------

    def passes(self) -> List[CompilerPass]:
        """The default pipeline: front end, post-check, then the mid end."""

        pipeline: List[CompilerPass] = [cls() for cls in FRONTEND_PASSES]
        pipeline.append(TypeCheckingPost())
        pipeline.extend(cls() for cls in MIDEND_PASSES)
        return pipeline

    # -- compilation ------------------------------------------------------------

    def compile(self, program: Union[str, ast.Program]) -> CompilationResult:
        """Compile a program (AST or source text) and return all snapshots."""

        if isinstance(program, str):
            program = parse_program(program)
        manager = PassManager(self.passes(), self.options)
        return manager.run(program)


def compile_front_midend(
    program: Union[str, ast.Program], options: Optional[CompilerOptions] = None
) -> CompilationResult:
    """Convenience wrapper: compile with the default pipeline."""

    return P4Compiler(options).compile(program)


# ----------------------------------------------------------------------
# Shared-prefix compilation memo
# ----------------------------------------------------------------------
#
# Every platform of a campaign runs the same front/mid-end prefix over the
# same generated program: the open-toolchain unit to validate it, and each
# closed back end before its own lowering.  The prefix is a pure function
# of (source, the prefix-relevant enabled defects, skipped passes, the
# emit flag) — back ends never influence it (no pass reads
# ``options.target``, and backend-located defects are consulted only after
# the prefix, in :mod:`repro.targets`) — so the compilation is memoised
# process-wide and the resulting snapshots are shared by every consumer.

_PREFIX_MEMO = LruCache("prefix", 32)


def _prefix_relevant_bugs(enabled_bugs: Iterable[str]) -> FrozenSet[str]:
    """The subset of enabled defects that can affect the front/mid end.

    Backend-located defects only fire in the targets' own lowering, so two
    option sets that differ only there share a prefix.  Identifiers not in
    the catalog are conservatively kept in the key.
    """

    return frozenset(
        bug_id
        for bug_id in enabled_bugs
        if (entry := BUG_CATALOG.get(bug_id)) is None
        or entry.location != LOCATION_BACKEND
    )


def compile_prefix(
    program: ast.Program, source: str, options: CompilerOptions
) -> CompilationResult:
    """Compile the shared front/mid-end prefix, memoised process-wide.

    ``source`` must be the emitted source of ``program`` (the generator
    stage already has it): the string is the program's identity, exactly
    as in the validator's snapshot caches.  The returned result is shared
    between callers and must be treated as **read-only** — the validator,
    the backend lowerings and the test generator all only read it.  Note
    ``result.options`` records the options of whichever caller compiled
    first; consumers that care about backend defect flags (the targets)
    keep using their own options, never the result's.
    """

    key = (
        source,
        _prefix_relevant_bugs(options.enabled_bugs),
        frozenset(options.skip_passes),
        options.emit_after_each_pass,
    )
    result = _PREFIX_MEMO.get(key)
    if result is MISSING:
        result = P4Compiler(options).compile(program.clone())
        _PREFIX_MEMO.put(key, result)
    return result


def clear_prefix_cache() -> None:
    """Drop the prefix memo (tests and benchmarks start runs cold)."""

    _PREFIX_MEMO.clear()
