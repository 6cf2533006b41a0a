"""One oracle for every verdict, and the predicates triage builds on it.

:func:`platform_verdict` answers "what do platform P's oracles say about
this program under defect set B".  Campaign units, the backend-defect
bisection, the reducer's predicates and localization all ask it, so
triage re-asks exactly the oracle that filed a finding.

A reduction is only useful if the shrunken program still triggers the bug
the finding recorded — not merely *a* bug.  :func:`build_predicate`
therefore reruns the checks that can file the finding again and compares
its identity: the kind plus the crash **signature** (the paper's §4 dedup
key) for a crash, the kind plus the defective pass otherwise (for a
packet mismatch, the pass is ``backend``).

The reducer reads an exception a predicate raises as "the bug is gone",
keeps the statement and moves on.  Compilation always works on a clone —
the reducer owns the working tree and keeps mutating it between calls.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.compiler import CompilerOptions, compile_prefix
from repro.compiler.bugs import BUG_CATALOG
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.core.testgen import DEFAULT_SEQUENCE_LENGTH, cached_sequences
from repro.core.validation import TranslationValidator, ValidationOutcome
from repro.metrics import COUNTERS, declare
from repro.p4 import ast
from repro.targets import BACKEND_REGISTRY, Executable, PacketTest
from repro.targets.state import packet_layout

from repro.core.engine.units import (
    FINDING_CRASH,
    FINDING_INVALID,
    FINDING_SEMANTIC,
    STATUS_CLEAN,
    STATUS_FINDING,
    STATUS_ORACLE_ERROR,
    STATUS_REJECTED,
    FindingRecord,
)
from repro.core.reduce.reducer import Predicate

# How many §6 sequences and individual packets were actually driven
# through back-end executables.  ``sequences/sec`` in ``make
# bench-stateful`` is derived from these.
declare("sequences_replayed", "packets_replayed")

#: The checks of a unit, in the order it runs them.  Compiling (and
#: linking, for a back end) runs whatever ``steps`` holds: every other
#: check reads its result.
COMPILE, VALIDATE, REPLAY = "compile", "validate", "replay"
ALL_STEPS = (COMPILE, VALIDATE, REPLAY)

#: The pass a back end's finding is charged to when it names none: a
#: packet-test mismatch, or a crash without a pass.  Closed back ends are
#: observed at the platform boundary only.
BACKEND_PASS = "backend"

_VALIDATOR = TranslationValidator()


def platform_bugs(enabled_bugs: Iterable[str], platform: str) -> Set[str]:
    """The share of the campaign's enabled defects that live on ``platform``
    (``p4c``: the front and mid end; a back end: its own lowering)."""

    return {
        bug_id for bug_id in enabled_bugs if BUG_CATALOG[bug_id].platform == platform
    }


def is_packet_finding(finding: FindingRecord) -> bool:
    """True for a §6 packet-test mismatch, as opposed to a validation
    divergence a back end's prefix showed."""

    return finding.kind == FINDING_SEMANTIC and finding.pass_name == BACKEND_PASS


def packet_mismatch(
    program: ast.Program,
    source: str,
    executable: Executable,
    spec,
    max_tests: int,
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH,
) -> Optional[str]:
    """Replay the symbolic test sequences against a compiled executable.

    Returns a human-readable mismatch description, or ``None`` when every
    test passes (or the oracle could not produce tests for this program).
    Every sequence is replayed in full: state is reset once per sequence,
    the packets run in order against the live switch state, and after the
    last packet the final ``$state.*`` cells are compared too.  Stateless
    programs collapse to single-packet sequences, so their behaviour (and
    their cached tests) is unchanged.
    """

    sequences = cached_sequences(program, source, max_tests, sequence_length)
    if sequences is None:
        return None
    # Every packet of every sequence has the program's ``Headers`` layout:
    # resolve it once, not once per packet (its type check is memoised by
    # source, so test generation has usually paid for it already).
    layout = packet_layout(program, "Headers", source=source)
    runner = spec.runner_cls(executable)
    for sequence in sequences:
        COUNTERS["sequences_replayed"] += 1
        executable.reset_state()
        for generated in sequence.packets:
            COUNTERS["packets_replayed"] += 1
            test = PacketTest(
                name=generated.name,
                input_packet=generated.input_packet(layout),
                expected=generated.expected,
                entries=sequence.entries,
                ignore_paths=generated.ignore_paths,
            )
            result = runner.run_test(test)
            if not result.passed:
                detail = result.error or str(result.mismatches)
                return f"packet test {generated.name} failed: {detail}"
        if sequence.expected_state:
            observed = executable.switch_state().observable()
            for path, expected_value in sorted(sequence.expected_state.items()):
                if observed.get(path) != expected_value:
                    return (
                        f"sequence {sequence.name}: final state diverged at "
                        f"{path}: expected {expected_value}, observed "
                        f"{observed.get(path)}"
                    )
    return None


def platform_verdict(
    program: ast.Program,
    source: str,
    platform: str,
    bugs: Iterable[str],
    max_tests: int = 4,
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH,
    steps: Sequence[str] = ALL_STEPS,
) -> Tuple[str, Optional[FindingRecord]]:
    """The unit status and finding of ``program`` on ``platform`` under
    the defect set ``bugs``; ``source`` is the program's emitted source.

    The checks run in the unit's order, and the first finding ends them:

    1. compile the front/mid-end prefix (memoised process-wide: back ends
       of one program share it) and, for a back end, link its lowering.
       A :class:`CompilerCrash` is a crash finding (§4); a
       :class:`CompilerError` is a graceful rejection;
    2. translation validation (§5): an invalid transformation or the
       first semantic divergence.  A back end validates its prefix too:
       nearly free on the snapshot caches the p4c unit warmed, and the
       only way a latent mid-end defect on its (usually clean) prefix
       chain gets reported rather than silently lowered.  When the
       validator gives up, that is p4c's status (``oracle_error``),
       while a back end goes on to
    3. replay the symbolic packet tests (§6), back ends only.

    ``steps`` selects which checks after compiling run: triage leaves out
    the ones that cannot file the finding it reproduces.
    Raises :class:`ValueError` for a platform nobody registered.
    """

    spec = BACKEND_REGISTRY.get(platform)
    if spec is None and platform != "p4c":
        raise ValueError(f"unknown platform {platform!r}")
    options = CompilerOptions(enabled_bugs=set(bugs))
    result = compile_prefix(program, source, options)
    if result.rejected:
        return STATUS_REJECTED, None
    # A crashed prefix is read, not linked: linking would re-raise the
    # memoised exception, and every raise grows its traceback.
    crash, executable = result.crash, None
    if crash is None and spec is not None:
        try:
            executable = spec.target_cls(options).link(result)
        except CompilerCrash as exc:
            crash = exc
        except CompilerError:
            return STATUS_REJECTED, None
    if crash is not None:
        return STATUS_FINDING, FindingRecord(
            kind=FINDING_CRASH,
            platform=platform,
            pass_name=crash.pass_name or BACKEND_PASS,
            description=str(crash),
            signature=crash.signature,
        )
    if VALIDATE in steps:
        report = _VALIDATOR.validate_compilation(result)
        if report.outcome == ValidationOutcome.INVALID_TRANSFORMATION:
            return STATUS_FINDING, FindingRecord(
                kind=FINDING_INVALID,
                platform=platform,
                pass_name=report.invalid_pass,
                description=report.detail,
            )
        if report.outcome == ValidationOutcome.SEMANTIC_BUG:
            divergence = report.divergences[0]
            return STATUS_FINDING, FindingRecord(
                kind=FINDING_SEMANTIC,
                platform=platform,
                pass_name=divergence.pass_name,
                description=(
                    f"pass {divergence.pass_name} changed {divergence.output_path} "
                    f"in block {divergence.block}"
                ),
                witness=dict(divergence.witness),
                before_pass=divergence.before_pass,
            )
        if report.outcome == ValidationOutcome.ORACLE_ERROR and spec is None:
            return STATUS_ORACLE_ERROR, None
    if executable is not None and REPLAY in steps:
        mismatch = packet_mismatch(
            program, source, executable, spec, max_tests, sequence_length
        )
        if mismatch is not None:
            return STATUS_FINDING, FindingRecord(
                kind=FINDING_SEMANTIC,
                platform=platform,
                pass_name=BACKEND_PASS,
                description=mismatch,
            )
    return STATUS_CLEAN, None


def _identity(finding: FindingRecord) -> Tuple[str, str]:
    """What makes two findings the same bug: the kind plus the crash
    signature, or the kind plus the pass to blame."""

    if finding.kind == FINDING_CRASH:
        return finding.kind, finding.signature
    return finding.kind, finding.pass_name


def build_predicate(
    finding: FindingRecord,
    platform: str,
    enabled_bugs: Iterable[str],
    max_tests: int = 4,
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH,
) -> Predicate:
    """The ``still_fails(candidate, source)`` predicate of one finding: the
    platform's verdict on the candidate files a finding of the same
    identity."""

    if finding.kind == FINDING_CRASH:
        steps: Tuple[str, ...] = (COMPILE,)
    elif is_packet_finding(finding):
        steps = (COMPILE, REPLAY)
    else:
        steps = (COMPILE, VALIDATE)
    # When the finding was bisected down to individual defects, reduce
    # against exactly those: a candidate that only still trips some *other*
    # same-platform defect is a different bug, and accepting it would walk
    # the reduction away from the report being triaged.  Only packet
    # findings are bisected.
    bugs = platform_bugs(finding.attributed_bugs, platform) or platform_bugs(
        enabled_bugs, platform
    )
    wanted = _identity(finding)

    def still_fails(candidate: ast.Program, source: str) -> bool:
        _, found = platform_verdict(
            candidate, source, platform, bugs, max_tests, sequence_length, steps
        )
        return found is not None and _identity(found) == wanted

    return still_fails
