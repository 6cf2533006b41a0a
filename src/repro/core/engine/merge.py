"""Deterministic merge of unit outcomes into campaign-level results.

Workers return raw findings; this module turns them into deduplicated
:class:`~repro.core.bugs.BugReport` records and aggregate statistics.  Two
properties make the merge scheduler-independent:

* reports are filed per-identifier by the *minimal* ``(program_index,
  platform rank, finding index)`` origin, so the deduplication picks the
  same representative trigger program no matter which worker finished
  first (equivalent to sorting all outcomes up front, but computable
  incrementally as shards stream in), and
* attribution (mapping a finding onto an enabled seeded defect) uses only
  the finding record and the campaign-wide enabled set — no worker state.
  Workers that bisected a semantic finding down to individual defects ship
  the result in ``FindingRecord.attributed_bugs``; the merge then files one
  report per attributed defect instead of guessing a single platform-level
  culprit.

The merger is *incremental*: ``add()`` folds one outcome at a time (scalar
tallies are order-independent sums; report candidates keep a running
per-identifier winner) and ``finalize()`` files the winners in their
canonical order.  The distributed coordinator calls ``add()`` as shards
stream in; ``merge()`` keeps the one-shot convenience API on top of the
same two steps, so ``jobs=1`` and a worker fleet produce byte-identical
reports.

Each unit's and triage unit's counter differences (:mod:`repro.metrics`:
solver checks, cache hits and misses, replays) are summed into
:attr:`CampaignStatistics.counters` so campaign benchmarks stay truthful
when the work is sharded across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.compiler import P4Compiler
from repro.compiler.bugs import BUG_CATALOG, KIND_CRASH, KIND_SEMANTIC, SeededBug
from repro.core.bugs import BugKind, BugLocation, BugReport, BugStatus, BugTracker
from repro.core.engine.units import (
    FINDING_CRASH,
    FINDING_INVALID,
    FINDING_SEMANTIC,
    STATUS_ORACLE_ERROR,
    STATUS_REJECTED,
    TRIAGE_REDUCED,
    FindingRecord,
    TriageOutcome,
    UnitOutcome,
)

#: Pass name -> location of every pipeline pass, used to localise findings
#: that are not attributed to a seeded defect; any other name is a back
#: end's.
_PASS_LOCATIONS = {
    compiler_pass.name: BugLocation(compiler_pass.location)
    for compiler_pass in P4Compiler().passes()
}

#: Coverage cells land in :attr:`CampaignStatistics.counters` under this
#: prefix, so they ride the exact same merge/serialisation path as the
#: solver and cache counters while staying separable on the way out
#: (:meth:`CampaignStatistics.coverage`).
COVERAGE_COUNTER_PREFIX = "cov_"


@dataclass
class TriageSource:
    """Where a deduplicated report came from — the input of its triage unit.

    Recorded by the merger for the *winning* (first filed) finding of each
    identifier; since outcomes are sorted before filing, the provenance —
    and therefore the whole triage stage — is scheduler-independent.
    """

    identifier: str
    program_index: int
    platform: str
    source: str
    finding: FindingRecord


@dataclass
class CampaignStatistics:
    """Aggregate results of one campaign run."""

    programs_generated: int = 0
    programs_rejected: int = 0
    oracle_errors: int = 0
    crash_findings: int = 0
    semantic_findings: int = 0
    tracker: BugTracker = field(default_factory=BugTracker)
    #: Summed per-unit and per-triage-unit counter differences
    #: (``solver_*`` checks, cache hits/misses, replays, collections) plus
    #: the fleet's ``dist_*`` service counters.  Totals reflect the work
    #: actually performed by this run (never a store-resumed outcome's), so
    #: they vary with executor/cache locality — unlike the tracker, which
    #: is executor-invariant.
    counters: Dict[str, int] = field(default_factory=dict)
    #: How many work units the campaign comprised, and how many were
    #: served from the artifact store instead of being recomputed.
    units_total: int = 0
    units_reused: int = 0
    #: Triage stage bookkeeping (``reduce=True`` campaigns): one reduction
    #: per deduplicated report, and how many came out of the store.
    triage_total: int = 0
    triage_reused: int = 0

    def add_counters(self, counters: Dict[str, int]) -> None:
        """Sum ``counters`` into :attr:`counters`."""

        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def coverage(self) -> Dict[str, int]:
        """Merged pipeline-coverage cells, without the ``cov_`` prefix.

        Unlike the raw worker counters, coverage is a pure function of the
        unit set — reused (store-resumed) outcomes contribute theirs too —
        so this aggregate is identical at any job count and across resumes.
        """

        return {
            key[len(COVERAGE_COUNTER_PREFIX):]: value
            for key, value in self.counters.items()
            if key.startswith(COVERAGE_COUNTER_PREFIX)
        }

    def summary_table(self) -> Dict:
        return self.tracker.summary_table()

    def location_table(self) -> Dict:
        return self.tracker.location_table()

    def mean_reduction_ratio(self) -> float:
        """Mean statement-count reduction over the triaged reports."""

        ratios = [
            report.reduction_ratio
            for report in self.tracker.reports
            if report.reduced_source
        ]
        if not ratios:
            return 0.0
        return sum(ratios) / len(ratios)


class OutcomeMerger:
    """Fold unit outcomes (streamed in any order) into deduplicated reports."""

    def __init__(self, enabled_bugs: Iterable[str]) -> None:
        self.enabled = set(enabled_bugs)
        #: identifier -> winning finding's origin, for the triage stage.
        self.provenance: Dict[str, TriageSource] = {}
        #: identifier -> (origin order, report, provenance).  The origin
        #: order is ``(outcome.sort_key(), finding index, report index)``;
        #: keeping the minimum per identifier is exactly what filing
        #: globally-sorted outcomes into a first-report-wins tracker did,
        #: but works one outcome at a time.
        self._winners: Dict[str, Tuple[Tuple, BugReport, TriageSource]] = {}

    # -- entry points ----------------------------------------------------------

    def merge(
        self, outcomes: Iterable[UnitOutcome], statistics: CampaignStatistics
    ) -> CampaignStatistics:
        """One-shot convenience wrapper over ``add`` + ``finalize``."""

        for outcome in outcomes:
            self.add(outcome, statistics)
        return self.finalize(statistics)

    def add(self, outcome: UnitOutcome, statistics: CampaignStatistics) -> None:
        """Fold one outcome; safe to call in any (e.g. streaming) order.

        Must be called exactly once per unit — the caller's dedup
        (:class:`~repro.core.engine.store.OutcomeDedup`) guarantees that
        for at-least-once transports.
        """

        if outcome.status == STATUS_REJECTED:
            statistics.programs_rejected += 1
        elif outcome.status == STATUS_ORACLE_ERROR:
            statistics.oracle_errors += 1
        for finding_index, finding in enumerate(outcome.findings):
            if finding.kind == FINDING_CRASH:
                statistics.crash_findings += 1
            else:
                statistics.semantic_findings += 1
            for report_index, report in enumerate(
                self._to_reports(finding, outcome.source)
            ):
                order = (outcome.sort_key(), finding_index, report_index)
                current = self._winners.get(report.identifier)
                if current is not None and current[0] <= order:
                    continue
                self._winners[report.identifier] = (
                    order,
                    report,
                    TriageSource(
                        identifier=report.identifier,
                        program_index=outcome.program_index,
                        platform=outcome.platform,
                        source=outcome.source,
                        finding=finding,
                    ),
                )
        statistics.add_counters(outcome.counters)
        statistics.add_counters(
            {COVERAGE_COUNTER_PREFIX + cell: value for cell, value in outcome.coverage.items()}
        )

    def finalize(self, statistics: CampaignStatistics) -> CampaignStatistics:
        """File the per-identifier winners in canonical origin order."""

        for order, report, source in sorted(
            self._winners.values(), key=lambda entry: entry[0]
        ):
            if statistics.tracker.file(report):
                self.provenance[report.identifier] = source
        self._winners.clear()
        return statistics

    # -- attribution -----------------------------------------------------------

    def _attribute(self, finding: FindingRecord) -> Optional[SeededBug]:
        """Best-effort attribution of a finding to an enabled seeded defect."""

        # Sorted for determinism: the legacy loop iterated a set, so the
        # platform-fallback attribution below depended on hash order.
        candidates = [BUG_CATALOG[bug_id] for bug_id in sorted(self.enabled)]
        # The catalog files invalid transformations (an emitted program
        # that no longer parses) under the crash kind, next to crashes.
        crash_like = finding.kind in (FINDING_CRASH, FINDING_INVALID)
        expected_kind = KIND_CRASH if crash_like else KIND_SEMANTIC
        for bug in candidates:
            if bug.pass_name == finding.pass_name and bug.kind == expected_kind:
                return bug
        for bug in candidates:
            if bug.platform == finding.platform and bug.kind == expected_kind:
                return bug
        return None

    def _to_reports(self, finding: FindingRecord, source: str) -> List[BugReport]:
        """All reports one finding files — usually one, more when bisected.

        A backend semantic finding whose worker bisected the enabled defect
        set (``attributed_bugs``) files one report per implicated defect:
        a packet mismatch caused by two independent seeded defects is two
        bugs, and collapsing them to a single platform-level guess is
        exactly the attribution error the bisection exists to remove.
        """

        if finding.attributed_bugs and finding.kind == FINDING_SEMANTIC:
            reports = []
            for bug_id in finding.attributed_bugs:
                bug = BUG_CATALOG.get(bug_id)
                if bug is None:
                    continue
                reports.append(
                    BugReport(
                        identifier=f"{finding.platform}:{bug_id}",
                        kind=BugKind.SEMANTIC,
                        platform=finding.platform,
                        location=BugLocation(bug.location),
                        pass_name=finding.pass_name,
                        description=finding.description,
                        status=BugStatus.CONFIRMED,
                        trigger_source=source,
                        witness=dict(finding.witness),
                        seeded_bug_id=bug_id,
                    )
                )
            if reports:
                return reports
        return [self._to_report(finding, source)]

    def _to_report(self, finding: FindingRecord, source: str) -> BugReport:
        seeded = self._attribute(finding)
        kind = BugKind(finding.kind)
        if seeded is not None:
            identifier = f"{finding.platform}:{seeded.bug_id}"
            location = BugLocation(seeded.location)
        elif finding.kind == FINDING_CRASH:
            identifier = f"{finding.platform}:{finding.signature}"
            location = _PASS_LOCATIONS.get(finding.pass_name, BugLocation.BACK_END)
        else:
            identifier = f"{finding.platform}:{kind.value}:{finding.pass_name}"
            location = _PASS_LOCATIONS.get(finding.pass_name, BugLocation.BACK_END)
        return BugReport(
            identifier=identifier,
            kind=kind,
            platform=finding.platform,
            location=location,
            pass_name=finding.pass_name,
            description=finding.description,
            status=BugStatus.CONFIRMED,
            trigger_source=source,
            witness=dict(finding.witness),
            seeded_bug_id=seeded.bug_id if seeded else None,
        )


def apply_triage(
    statistics: CampaignStatistics, outcomes: Iterable[TriageOutcome]
) -> None:
    """Fold triage outcomes onto the filed reports, scheduler-independent.

    Outcomes are sorted by report identifier before application (one
    outcome per identifier, so the sort fully determines the result) and
    each one decorates its report in place.  An unreproduced reduction
    leaves the report exactly as the merge filed it — the original trigger
    is still correct, just not minimized.
    """

    for outcome in sorted(outcomes, key=lambda entry: entry.identifier):
        report = statistics.tracker.get(outcome.identifier)
        if report is None or outcome.status != TRIAGE_REDUCED:
            continue
        report.reduced_source = outcome.reduced_source
        report.reduction_ratio = round(outcome.reduction_ratio, 4)
        report.reduction_rounds = outcome.rounds
        report.localized_pass = outcome.localized_pass
        report.pass_pair = outcome.pass_pair
        if outcome.min_sequence_length > 0:
            report.sequence_length = outcome.min_sequence_length
