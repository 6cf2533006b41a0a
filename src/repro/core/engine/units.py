"""Work units and their outcomes — the engine's wire format.

A campaign is decomposed into independent ``(program_index, platform)``
work units.  Every unit and outcome of every kind (:data:`KINDS`) has a
``key`` and the JSON form its fields define (:class:`~repro.core.records.Record`):
units cross a TCP connection on the way to a fleet worker, and outcomes
are appended to the campaign's JSONL artifact store so an interrupted
campaign can resume without recomputing finished units.

The outcome deliberately carries raw, attribution-free data: which oracle
fired, the finding's signature/pass/witness, and the emitted source that
triggered it.  Mapping findings onto deduplicated :class:`BugReport`
records (which needs the campaign-wide set of enabled seeded defects) is
the *merge* step's job, in the parent process, so that the result is
independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.generator import GeneratorConfig
from repro.core.records import Record

#: Deterministic platform ordering used when merging unit outcomes: the
#: serial loop tested p4c first, then the back ends (in the order they
#: joined the registry), and the merge step sorts by ``(program_index,
#: platform rank)`` to reproduce that order regardless of worker
#: completion order.  A new back end appends its name here and registers
#: its classes in :data:`repro.targets.BACKEND_REGISTRY` — see the
#: backend-author contract in ``src/repro/targets/README.md``.
PLATFORM_ORDER: Tuple[str, ...] = ("p4c", "bmv2", "tofino", "ebpf")

#: Unit statuses.
STATUS_CLEAN = "clean"
STATUS_REJECTED = "rejected"
STATUS_ORACLE_ERROR = "oracle_error"
STATUS_FINDING = "finding"

#: Finding kinds (mirrors :class:`repro.core.bugs.BugKind` values).
FINDING_CRASH = "crash"
FINDING_SEMANTIC = "semantic"
FINDING_INVALID = "invalid_transformation"

#: Triage outcome statuses.
TRIAGE_REDUCED = "reduced"
TRIAGE_UNREPRODUCED = "unreproduced"

#: Unit kinds: every executor stage (local or distributed) schedules one
#: homogeneous batch of generation units (:class:`WorkUnit` →
#: :class:`UnitOutcome`), triage units (:class:`TriageUnit` →
#: :class:`TriageOutcome`) or detection-matrix units (:class:`MatrixUnit` →
#: :class:`MatrixOutcome`).  The kind travels with a distributed lease so
#: a worker knows which runner to dispatch (:data:`KINDS`).
KIND_WORK = "work"
KIND_TRIAGE = "triage"
KIND_MATRIX = "matrix"


def platform_rank(platform: str) -> int:
    """Sort key for deterministic merges; unknown platforms sort last."""

    try:
        return PLATFORM_ORDER.index(platform)
    except ValueError:
        return len(PLATFORM_ORDER)


@dataclass(frozen=True)
class WorkUnit(Record):
    """One shard of a campaign: test one generated program on one platform.

    The unit carries everything a worker needs to *regenerate* the program
    (the generator config embeds the campaign seed; the program itself is
    derived from ``(seed, program_index)`` via
    :func:`repro.core.generator.derive_child_seed`) rather than the program
    AST itself: regeneration is cheap, deterministic, and keeps the
    payload tiny.
    """

    program_index: int
    platform: str
    generator: GeneratorConfig
    enabled_bugs: Tuple[str, ...] = ()
    max_tests: int = 4
    #: Packet count of the §6 test sequences replayed against stateful
    #: programs (stateless programs always collapse to length 1).  Part of
    #: the wire form: a distributed worker must replay exactly what the
    #: serial run would.
    sequence_length: int = 3

    @property
    def key(self) -> Tuple[int, str]:
        return (self.program_index, self.platform)


@dataclass
class FindingRecord(Record):
    """One raw oracle finding, before attribution and deduplication."""

    kind: str  # FINDING_CRASH | FINDING_SEMANTIC | FINDING_INVALID
    platform: str
    pass_name: str
    description: str
    #: Crash signature (crash findings only) — the dedup key of §4.
    signature: str = ""
    #: Witness input assignment (semantic findings only).
    witness: Dict[str, object] = field(default_factory=dict)
    #: Last agreeing snapshot before the divergence (semantic p4c findings
    #: only) — ``(before_pass, pass_name)`` is the diverging pass pair.
    before_pass: str = ""
    #: Backend semantic findings only: the enabled seeded defects that each
    #: *individually* reproduce this packet mismatch (computed by the
    #: worker's per-defect bisection over the trigger).  Empty means the
    #: bisection was inconclusive — no single defect reproduces — and the
    #: merge falls back to platform-level attribution.
    attributed_bugs: Tuple[str, ...] = ()


@dataclass
class UnitOutcome(Record):
    """Everything one work unit produced, in JSON-serialisable form."""

    program_index: int
    platform: str
    status: str
    findings: List[FindingRecord] = field(default_factory=list)
    #: Emitted source of the generated program, the trigger of the
    #: findings.  Empty when there are none: only reports and triage read
    #: it, and the unit's generator config and index rebuild the program.
    source: str = ""
    #: The difference of two :func:`repro.metrics.snapshot` readings around
    #: the unit, taken in the process that ran it (solver checks, cache
    #: hits/misses, replays, collections); summed by the merge step so the
    #: campaign totals stay truthful under parallelism.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Pipeline coverage cells this unit's program lit up (pass-fired bits,
    #: rewrite-rule hits, term shapes, program features).  Unlike
    #: ``counters`` this is a pure function of (generator, index, bugs) —
    #: never of process state — so store-resumed outcomes replay it and
    #: merged campaign coverage is identical at any job count.
    coverage: Dict[str, int] = field(default_factory=dict)
    #: Wall seconds of the unit in its worker.  ``perfbench/batch.py``
    #: reads it for ``unit_p50_ms``, ``unit_p90_ms`` and ``setup_s``.
    elapsed_s: float = 0.0

    @property
    def key(self) -> Tuple[int, str]:
        return (self.program_index, self.platform)

    def sort_key(self) -> Tuple[int, int]:
        return (self.program_index, platform_rank(self.platform))


@dataclass(frozen=True)
class TriageUnit(Record):
    """One shard of the triage stage: reduce + localize one filed report.

    The unit carries the deduplicated report's identity, its winning
    trigger *source* (parsing it back is deterministic and keeps the unit
    self-contained — a stored artifact line is enough to rebuild one, see
    ``examples/reduce_bug.py``) and everything the oracle predicate needs
    to re-run the original detection: platform, raw finding, enabled
    defects and the packet-test budget.
    """

    identifier: str
    platform: str
    source: str
    finding: FindingRecord
    enabled_bugs: Tuple[str, ...] = ()
    max_tests: int = 4
    reduce_rounds: int = 8
    #: Sequence length the detecting campaign replayed (the triage oracle
    #: must chase the bug with the same packet budget).
    sequence_length: int = 3

    @property
    def key(self) -> str:
        return self.identifier


@dataclass
class TriageOutcome(Record):
    """Everything one triage unit produced, in JSON-serialisable form."""

    identifier: str
    status: str  # TRIAGE_REDUCED | TRIAGE_UNREPRODUCED
    reduced_source: str = ""
    original_size: int = 0
    reduced_size: int = 0
    rounds: int = 0
    attempts: int = 0
    localized_pass: str = ""
    pass_pair: Optional[Tuple[str, str]] = None
    #: Wall seconds of the triage unit; ``perfbench/batch.py`` sums it into
    #: the triage ``unit_s``.
    elapsed_s: float = 0.0
    #: Per-transformation-class effort (oracle calls / kept edits /
    #: statements removed), from :class:`~repro.core.reduce.reducer.ReductionResult`.
    transform_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Smallest packet-sequence length that still reproduces the bug on the
    #: reduced trigger (backend packet findings on stateful programs only;
    #: ``0`` means not applicable — a single-packet oracle).  Survives the
    #: store round-trip so a resumed campaign reports the same minimal
    #: replay vector the original triage computed.
    min_sequence_length: int = 0
    #: The difference of two :func:`repro.metrics.snapshot` readings around
    #: the triage unit, as :attr:`UnitOutcome.counters` is around a unit:
    #: the reducer's oracle calls do most of a seeded campaign's solving.
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return self.identifier

    @property
    def reduction_ratio(self) -> float:
        if self.original_size <= 0:
            return 0.0
        return 1.0 - (self.reduced_size / self.original_size)


def detection_technique(outcome: UnitOutcome) -> str:
    """Map a detecting unit outcome onto the paper's technique names."""

    if any(finding.kind == FINDING_CRASH for finding in outcome.findings):
        return "crash"
    if outcome.platform == "p4c":
        return "translation_validation"
    return "symbolic_execution"


@dataclass(frozen=True)
class MatrixUnit(Record):
    """One defect's detection-matrix try loop, shipped to a worker.

    The loop runs programs ``start``, ``start + 1``, ... of the steered
    ``generator`` on ``platform`` until the first finding or
    ``programs_per_bug``; ``start`` skips the tries the store holds.
    """

    bug_id: str
    platform: str
    generator: GeneratorConfig
    programs_per_bug: int
    max_tests: int = 4
    sequence_length: int = 3
    start: int = 0

    @property
    def key(self) -> str:
        return self.bug_id

    def work_unit(self, program_index: int) -> WorkUnit:
        """The single-defect generation unit of one try."""

        return WorkUnit(
            program_index=program_index,
            platform=self.platform,
            generator=self.generator,
            enabled_bugs=(self.bug_id,),
            max_tests=self.max_tests,
            sequence_length=self.sequence_length,
        )


@dataclass
class MatrixOutcome(Record):
    """Whether one defect's try loop detected it, plus the units it ran."""

    bug_id: str
    detected: bool
    technique: str = ""
    #: Programs tried, counting the ones reused from the store.
    attempts: int = 0
    #: Outcomes of the tries this loop ran, for the engine to persist.
    fresh: List[UnitOutcome] = field(default_factory=list)

    @property
    def key(self) -> str:
        return self.bug_id


class Kind(NamedTuple):
    """A unit kind's classes, and the name of its runner in ``stages``."""

    unit: type
    outcome: type
    runner: str


KINDS: Dict[str, Kind] = {
    KIND_WORK: Kind(WorkUnit, UnitOutcome, "run_unit"),
    KIND_TRIAGE: Kind(TriageUnit, TriageOutcome, "run_triage_unit"),
    KIND_MATRIX: Kind(MatrixUnit, MatrixOutcome, "run_matrix_unit"),
}


def program_groups(units: Sequence) -> List[List]:
    """Split ``units`` into runs of consecutive units of one program.

    A program's platform units share its prefix compilation, snapshot
    reparse and interpretation, symbolic tests and SAT queries through
    per-process caches, so an executor that keeps each run on one worker
    does that work once per program, as the serial loop does.  The fleet's
    leases place units by this rule.  Triage and matrix units are groups
    of one.
    (A batch holds one unit kind, so a work unit's predecessor is one too.)
    """

    groups: List[List] = []
    for unit in units:
        if (
            groups
            and isinstance(unit, WorkUnit)
            and groups[-1][-1].program_index == unit.program_index
        ):
            groups[-1].append(unit)
        else:
            groups.append([unit])
    return groups


def build_units(
    programs: range,
    platforms: Tuple[str, ...],
    generator: GeneratorConfig,
    enabled_bugs: Tuple[str, ...],
    max_tests: int,
    sequence_length: int = 3,
) -> List[WorkUnit]:
    """The unit list of one campaign round, in deterministic order.

    ``programs`` is the round's range of program indices (``range(n)``
    for a static campaign).  Unknown platforms are rejected here, in the
    parent, before any work is scheduled: a worker raising mid-campaign
    would abort the campaign with a half-written artifact store.
    """

    unknown = [platform for platform in platforms if platform not in PLATFORM_ORDER]
    if unknown:
        raise ValueError(
            f"unknown platform(s) {unknown!r}; supported: {list(PLATFORM_ORDER)}"
        )
    ordered_platforms = sorted(platforms, key=platform_rank)
    return [
        WorkUnit(
            program_index=index,
            platform=platform,
            generator=generator,
            enabled_bugs=tuple(enabled_bugs),
            max_tests=max_tests,
            sequence_length=sequence_length,
        )
        for index in programs
        for platform in ordered_platforms
    ]
