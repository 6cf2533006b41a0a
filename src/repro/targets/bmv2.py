"""The BMv2-style back end ("simple switch").

The BMv2 back end is an *open* target: the lowered program is observable, so
Gauntlet can apply translation validation to every pass, and the STF-like
test framework (:mod:`repro.targets.stf`) exercises the executable with
concrete packets.

Seeded defects (see :mod:`repro.compiler.bugs`):

* ``bmv2_table_key_order_crash`` -- the lowering pass crashes on tables with
  more keys than actions,
* ``bmv2_wide_field_truncation`` -- the executable truncates writes to
  fields wider than 32 bits.
"""

from __future__ import annotations

from typing import Optional

from repro.compiler import CompilerOptions, P4Compiler
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.compiler.pass_manager import CompilationResult
from repro.p4 import ast
from repro.targets.execution import Executable, TargetSemantics


class Bmv2Target:
    """Compile P4 programs for the BMv2 reference switch."""

    name = "bmv2"

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions()

    # -- compilation -----------------------------------------------------------

    def compile(self, program) -> Executable:
        """Run the shared front/mid end, then the BMv2 lowering checks."""

        return self.link(P4Compiler(self.options).compile(program))

    def link(self, result: CompilationResult) -> Executable:
        """Lower an already-compiled front/mid-end result.

        The campaign engine compiles the shared prefix once per program
        (:func:`repro.compiler.compile_prefix`) and hands the same
        ``CompilationResult`` to every back end, so the lowering must only
        *read* it.  Raises the recorded crash/rejection, exactly as
        :meth:`compile` does.
        """

        if result.crashed:
            raise result.crash
        if result.rejected:
            raise result.error
        lowered = result.final_program
        self._lower(lowered)
        semantics = TargetSemantics(
            truncate_wide_fields=self.options.bug_enabled("bmv2_wide_field_truncation"),
        )
        return Executable(lowered, semantics, result.final_source)

    # -- lowering -----------------------------------------------------------------

    def _lower(self, program: ast.Program) -> None:
        """Back-end specific validation of the mid-end output."""

        for control in program.controls():
            tables = [
                local for local in control.locals if isinstance(local, ast.TableDeclaration)
            ]
            for table in tables:
                if self.options.bug_enabled("bmv2_table_key_order_crash") and len(
                    table.keys
                ) > max(1, len(table.actions)):
                    raise CompilerCrash(
                        f"table {table.name!r}: key/action invariant violated "
                        f"({len(table.keys)} keys, {len(table.actions)} actions)",
                        pass_name="Bmv2Lowering",
                        signature="bmv2-key-action-invariant",
                    )
                for key in table.keys:
                    if key.match_kind not in ("exact",):
                        raise CompilerError(
                            f"BMv2 subset only supports exact matches, got "
                            f"{key.match_kind!r} in table {table.name!r}"
                        )
