"""The Tofino-style back end (closed source, black box).

Like the real Tofino compiler, this back end reuses the shared front/mid end
(P4C) but applies its own proprietary lowering.  Crucially it does **not**
expose intermediate programs -- :meth:`TofinoTarget.compile` only returns an
opaque executable or raises -- which is why Gauntlet must fall back to
symbolic-execution-based packet testing for this target (paper §6).

Seeded defects (see :mod:`repro.compiler.bugs`):

* ``tofino_table_limit_crash`` -- more tables than one stage can hold,
* ``tofino_exit_in_action_crash`` -- exit statements in table actions,
* ``tofino_concat_width_crash`` -- wide concatenation expressions,
* ``tofino_slice_assignment_drop`` -- narrow slice writes are dropped,
* ``tofino_ternary_condition_flip`` -- negated branch conditions invert.
"""

from __future__ import annotations

from typing import Optional

from repro.compiler import CompilerOptions, P4Compiler
from repro.compiler.errors import CompilerCrash
from repro.compiler.pass_manager import CompilationResult
from repro.p4 import ast
from repro.targets.execution import Executable, TargetSemantics


#: Number of match-action tables a single stage can accommodate.
TABLES_PER_STAGE = 12


class TofinoTarget:
    """Compile P4 programs for the Tofino switching ASIC (simulated)."""

    name = "tofino"

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions()

    def compile(self, program) -> Executable:
        """Compile for Tofino.  Only the executable (or an error) is visible."""

        return self.link(P4Compiler(self.options).compile(program))

    def link(self, result: CompilationResult) -> Executable:
        """Lower an already-compiled (shared, read-only) front/mid-end result."""

        if result.crashed:
            raise result.crash
        if result.rejected:
            raise result.error
        lowered = result.final_program
        self._backend_checks(lowered)
        semantics = TargetSemantics(
            drop_narrow_slice_writes_below=(
                8 if self.options.bug_enabled("tofino_slice_assignment_drop") else 0
            ),
            flip_negated_conditions=self.options.bug_enabled(
                "tofino_ternary_condition_flip"
            ),
        )
        return Executable(lowered, semantics, result.final_source)

    # -- proprietary lowering (not observable from outside) -----------------------

    def _backend_checks(self, program: ast.Program) -> None:
        for control in program.controls():
            tables = [
                local for local in control.locals if isinstance(local, ast.TableDeclaration)
            ]
            actions = {
                local.name: local
                for local in control.locals
                if isinstance(local, ast.ActionDeclaration)
            }
            if self.options.bug_enabled("tofino_table_limit_crash") and len(
                tables
            ) > TABLES_PER_STAGE:
                raise CompilerCrash(
                    f"table placement failed: {len(tables)} tables do not fit "
                    f"into a stage",
                    pass_name="TofinoTablePlacement",
                    signature="tofino-table-placement",
                )
            if self.options.bug_enabled("tofino_exit_in_action_crash"):
                for table in tables:
                    for ref in table.actions:
                        action = actions.get(ref.name)
                        if action is None:
                            continue
                        if any(
                            isinstance(node, ast.ExitStatement)
                            for node in ast.walk_statements(action.body)
                        ):
                            raise CompilerCrash(
                                f"action {action.name!r}: exit statements are "
                                "not supported by the action compiler",
                                pass_name="TofinoActionLowering",
                                signature="tofino-exit-in-action",
                            )
        if self.options.bug_enabled("tofino_concat_width_crash"):
            for node in ast.walk(program):
                if isinstance(node, ast.BinaryOp) and node.op == "++":
                    if self._concat_width(node) > 32:
                        raise CompilerCrash(
                            "PHV allocation failed for a concatenation wider "
                            "than 32 bits",
                            pass_name="TofinoPhvAllocation",
                            signature="tofino-concat-width",
                        )

    @staticmethod
    def _concat_width(node: ast.BinaryOp) -> int:
        def width_of(expr: ast.Expression) -> int:
            if isinstance(expr, ast.Constant) and expr.width is not None:
                return expr.width
            if isinstance(expr, ast.Slice):
                return expr.high - expr.low + 1
            if isinstance(expr, ast.BinaryOp) and expr.op == "++":
                return width_of(expr.left) + width_of(expr.right)
            # Without type information assume a conservative 16-bit container.
            return 16

        return width_of(node.left) + width_of(node.right)
