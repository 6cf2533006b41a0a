"""Crash-bug detection (paper §4).

Crash bugs need no oracle beyond the compiler itself: any abnormal
termination while compiling a well-formed program is a finding.  The helper
here classifies a :class:`CompilationResult` and produces a deduplication
key from the crash signature, mirroring how Gauntlet distinguishes unique
p4c assertion messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.compiler.pass_manager import CompilationResult


@dataclass(frozen=True)
class CrashFinding:
    """A single crash observed while compiling a program."""

    signature: str
    pass_name: str
    message: str
    platform: str = "p4c"

    @property
    def dedup_key(self) -> str:
        return f"{self.platform}:{self.signature}"


def classify_compilation(
    result: CompilationResult, platform: str = "p4c"
) -> Optional[CrashFinding]:
    """Return a :class:`CrashFinding` when the compilation crashed.

    Graceful rejections (:class:`~repro.compiler.errors.CompilerError`) are
    not findings: the compiler is allowed -- indeed required -- to reject
    invalid programs with a useful message.
    """

    if not result.crashed:
        return None
    crash = result.crash
    return CrashFinding(
        signature=crash.signature,
        pass_name=crash.pass_name,
        message=str(crash),
        platform=platform,
    )


def crash_from_exception(exc: Exception, platform: str) -> CrashFinding:
    """Build a finding from an exception raised by a back end."""

    signature = getattr(exc, "signature", None) or f"unhandled-{type(exc).__name__}"
    pass_name = getattr(exc, "pass_name", "") or "backend"
    return CrashFinding(
        signature=signature, pass_name=pass_name, message=str(exc), platform=platform
    )
