"""A nanopass P4 compiler -- the system under test.

The package mirrors the structure of P4C (paper §3): a front end that
desugars and analyses the program, a mid end that optimises it, and
target-specific back ends (in :mod:`repro.targets`).  The pass manager can
emit the transformed program after every pass, which is the hook Gauntlet's
translation validation uses.

Because the historical p4c defects are not available offline, the compiler
carries an explicit catalog of *seeded bugs* (:mod:`repro.compiler.bugs`),
one per root-cause class reported in the paper.  A bug is dormant unless it
is listed in :class:`CompilerOptions.enabled_bugs`; with no bugs enabled the
compiler is intended to be correct, and the test suite checks that.

Header stacks
-------------

Header stacks reach the mid end untouched by the front end and are lowered
by the ``HeaderStackFlattening`` pass (first optimisation in
:data:`repro.compiler.midend.MIDEND_PASSES`): ``push_front``/``pop_front``
become explicit element-by-element moves, ``extract(stack.next)`` becomes a
constant-indexed validity if-chain driven by a scalar ``<stack>_nextIndex``
struct field (initialised once on parser entry; loop-backs target a
duplicated start body so the init is not re-run and the unroll budget stays
aligned with the unflattened program), and ``stack.last.<field>`` reads
become ternary chains.  The statement recipes live in
:mod:`repro.p4.stacks` and are *shared with both interpreters*, which makes
the correct lowering semantically invisible to translation validation by
construction.  Two seeded defects live in this pass
(``stack_flatten_next_index_off_by_one``,
``stack_flatten_pop_validity_drop``); after it runs, the only stack surface
the back ends ever see is constant-indexed element access, which behaves
like a scalar header.
"""

from repro.compiler.errors import CompilerCrash, CompilerError
from repro.compiler.options import CompilerOptions
from repro.compiler.bugs import BUG_CATALOG, SeededBug, bugs_by_kind, bugs_by_location
from repro.compiler.coverage import CoverageMap, merge_coverage_dicts, program_features
from repro.compiler.pass_manager import CompilationResult, PassManager, PassSnapshot
from repro.compiler.compiler import (
    P4Compiler,
    clear_prefix_cache,
    compile_front_midend,
    compile_prefix,
)

__all__ = [
    "CompilerCrash",
    "CompilerError",
    "CompilerOptions",
    "CoverageMap",
    "merge_coverage_dicts",
    "program_features",
    "BUG_CATALOG",
    "SeededBug",
    "bugs_by_kind",
    "bugs_by_location",
    "CompilationResult",
    "PassManager",
    "PassSnapshot",
    "P4Compiler",
    "compile_front_midend",
    "compile_prefix",
    "clear_prefix_cache",
]
