"""Pass manager: run a pipeline and record a snapshot after every pass.

This is the equivalent of running ``p4test --top4`` in the paper: the
manager emits the transformed program after each pass so the translation
validator can compare consecutive snapshots and pinpoint the defective pass.
Snapshots whose emitted source is identical to their predecessor are marked
unchanged and skipped by the validator, exactly as Gauntlet skips emitted
programs with an identical hash (§5.2).

Passes are copy-on-write (see :mod:`repro.compiler.visitor`): a pass that
changed nothing returns its input object.  The manager reads an identical
object as unchanged and reuses the previous source instead of emitting it
again; any other result is emitted and compared as above.  A caller that
already holds the input's emitted source passes it in, and the input is
not emitted either.

A pass that changed something still shares every declaration and
statement it left alone with its input, and no pass writes to a node it
returned, so one run renders each of those objects once: every emit of
the run goes through one emit memo (:data:`repro.p4.emitter.EmitMemo`),
and a later snapshot reuses the text of each object an earlier one
rendered.  The memo dies with the run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.compiler.coverage import CoverageMap
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.compiler.options import CompilerOptions
from repro.compiler.passes import CompilerPass, PassContext
from repro.metrics import COUNTERS, declare
from repro.p4 import ast
from repro.p4.emitter import EmitMemo, emit_program

declare("compiler_snapshot_emits")


@dataclass
class PassSnapshot:
    """The program as it looked after one pass."""

    pass_name: str
    location: str
    program: ast.Program
    source: str
    changed: bool

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.source.encode()).hexdigest()


@dataclass
class CompilationResult:
    """Everything a compilation run produced."""

    options: CompilerOptions
    snapshots: List[PassSnapshot] = field(default_factory=list)
    crash: Optional[CompilerCrash] = None
    error: Optional[CompilerError] = None
    #: Pass-fired bits and rewrite-rule hit counters collected during the run.
    #: Shared with the :class:`~repro.compiler.passes.PassContext`, so it is
    #: populated even when a pass crashed or rejected the program.
    coverage: CoverageMap = field(default_factory=CoverageMap)

    @property
    def succeeded(self) -> bool:
        return self.crash is None and self.error is None

    @property
    def crashed(self) -> bool:
        return self.crash is not None

    @property
    def rejected(self) -> bool:
        return self.error is not None

    @property
    def final_program(self) -> ast.Program:
        if not self.snapshots:
            raise ValueError("compilation produced no snapshots")
        return self.snapshots[-1].program

    @property
    def final_source(self) -> str:
        """The emitted source of :attr:`final_program`."""

        if not self.snapshots:
            raise ValueError("compilation produced no snapshots")
        return self.snapshots[-1].source

    def changed_snapshots(self) -> List[PassSnapshot]:
        """Snapshots that actually modified the program (plus the input)."""

        out = [self.snapshots[0]] if self.snapshots else []
        out.extend(snapshot for snapshot in self.snapshots[1:] if snapshot.changed)
        return out


class PassManager:
    """Run a sequence of passes over a program, collecting snapshots."""

    def __init__(self, passes: Sequence[CompilerPass], options: CompilerOptions) -> None:
        self.passes = list(passes)
        self.options = options

    def run(self, program: ast.Program, source: Optional[str] = None) -> CompilationResult:
        """Run every pass over ``program``, whose emitted source is
        ``source`` (emitted here when not given)."""

        result = CompilationResult(options=self.options)
        context = PassContext(options=self.options)
        result.coverage = context.coverage
        memo: EmitMemo = {}
        if source is None:
            source = emit_program(program, memo)
            COUNTERS["compiler_snapshot_emits"] += 1
        result.snapshots.append(
            PassSnapshot("input", "input", program, source, changed=True)
        )
        current = program
        previous_source = source
        for compiler_pass in self.passes:
            try:
                transformed = compiler_pass.run(current, context)
            except CompilerCrash as crash:
                if not crash.pass_name:
                    crash.pass_name = compiler_pass.name
                result.crash = crash
                return result
            except CompilerError as error:
                result.error = error
                return result
            except RecursionError as exc:
                result.crash = CompilerCrash(
                    f"recursion limit exceeded: {exc}",
                    pass_name=compiler_pass.name,
                    signature="recursion-limit",
                )
                return result
            except Exception as exc:  # noqa: BLE001 - any escape is a crash bug
                result.crash = CompilerCrash(
                    f"unhandled {type(exc).__name__}: {exc}",
                    pass_name=compiler_pass.name,
                    signature=f"unhandled-{type(exc).__name__}",
                )
                return result
            if transformed is current:
                new_source = previous_source
            else:
                new_source = emit_program(transformed, memo)
                COUNTERS["compiler_snapshot_emits"] += 1
            changed = new_source != previous_source
            if changed:
                context.coverage.record_pass(compiler_pass.name)
            result.snapshots.append(
                PassSnapshot(
                    compiler_pass.name,
                    compiler_pass.location,
                    transformed,
                    new_source,
                    changed=changed,
                )
            )
            current = transformed
            previous_source = new_source
        return result
