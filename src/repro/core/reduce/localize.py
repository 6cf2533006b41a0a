"""Pass-level bug localization.

The translation-validation design already pins a semantic bug to the pass
pair whose snapshots first disagree (paper §5); this module extracts that
signal and adds the analogue for crash bugs: the pass manager stops at the
first crash and names the pass that raised it, so one compilation of the
reduced program gives the crashing pass and the snapshot before it.

Black-box back ends cannot be localized past the platform boundary: for
backend crashes the crash exception already names the proprietary pass,
and for packet-test mismatches the defect is attributed to ``backend``,
exactly the granularity the paper reports for Tofino findings.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.compiler import CompilerOptions, compile_prefix
from repro.p4 import ast, emit_program

from repro.core.engine.units import (
    FINDING_CRASH,
    FINDING_INVALID,
    FINDING_SEMANTIC,
    FindingRecord,
)
from repro.core.reduce.oracles import platform_bugs, platform_verdict

#: ``(localized pass, optional (before, after) snapshot/pipeline pair)``.
Localization = Tuple[str, Optional[Tuple[str, str]]]


def crash_pass_pair(
    program: ast.Program, signature: str, enabled_bugs: Iterable[str]
) -> Localization:
    """The pass that crashes with ``signature``, and the snapshot before it."""

    options = CompilerOptions(enabled_bugs=platform_bugs(enabled_bugs, "p4c"))
    result = compile_prefix(program, emit_program(program), options)
    if not result.crashed or result.crash.signature != signature:
        return "", None
    culprit = result.crash.pass_name
    return culprit, (result.snapshots[-1].pass_name, culprit)


def localize_finding(
    finding: FindingRecord,
    program: ast.Program,
    platform: str,
    enabled_bugs: Iterable[str],
) -> Localization:
    """Localize one (already reduced) finding to a compiler pass.

    Falls back to the pass the original oracle named whenever the crash or
    divergence does not reproduce on this program — a localization must
    never erase the information the campaign already had.
    """

    if platform != "p4c":
        # Closed back end: the crash exception names the proprietary pass;
        # packet mismatches stop at the platform boundary.
        return (finding.pass_name or "backend"), None
    if finding.kind == FINDING_INVALID:
        # The reparse check already names the pass that emitted the broken
        # program; its predecessor snapshot is not tracked for reparses.
        return finding.pass_name, None
    if finding.kind == FINDING_CRASH:
        localized, pair = crash_pass_pair(program, finding.signature, enabled_bugs)
        if not localized:
            return finding.pass_name, None
        return localized, pair
    # The first diverging snapshot pair, as the p4c unit's oracle sees it.
    _, found = platform_verdict(
        program, emit_program(program), platform, platform_bugs(enabled_bugs, platform)
    )
    if found is None or found.kind != FINDING_SEMANTIC:
        return finding.pass_name, None
    return found.pass_name, (found.before_pass, found.pass_name)
