"""The staged campaign engine: schedule units, persist outcomes, merge.

This is the orchestration layer between the campaign facade
(:mod:`repro.core.campaign`) and the worker stages
(:mod:`repro.core.engine.stages`):

1. expand the campaign spec into its generation rounds (one for a static
   campaign) and each round into its deterministic unit list
   (``program_index`` × platform),
2. serve already-completed units from the JSONL artifact store (resume),
3. shard the remainder over the chosen executor,
4. append every fresh outcome to the store as it completes, and
5. merge all outcomes — reused and fresh — into deduplicated bug reports
   and statistics, independent of completion order.

The per-defect detection matrix rides the same machinery: each seeded
defect becomes one :class:`~repro.core.engine.units.MatrixUnit`, a try
loop over single-defect programs with an early exit on the first
detection, sharded *across defects* on the same executor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.bugs import BUG_CATALOG, LOCATION_BACKEND, SeededBug
from repro.core.generator import GeneratorConfig
from repro.core.schedule import KnobArm, round_plan, static_overrides_for_bug
from repro.core.testgen import DEFAULT_SEQUENCE_LENGTH
from repro.core.engine.distributed import DistributedExecutor
from repro.core.engine.executor import SerialExecutor
from repro.core.engine.merge import (
    CampaignStatistics,
    OutcomeMerger,
    TriageSource,
    apply_triage,
)
from repro.core.engine.protocol import parse_address
from repro.core.engine.store import ArtifactStore, campaign_key, triage_key
from repro.core.engine.units import (
    FindingRecord,
    KIND_MATRIX,
    KIND_TRIAGE,
    STATUS_FINDING,
    TRIAGE_REDUCED,
    MatrixOutcome,
    MatrixUnit,
    TriageOutcome,
    TriageUnit,
    UnitOutcome,
    build_units,
    detection_technique,
)


@dataclass(frozen=True)
class CampaignSpec:
    """Engine-level description of one campaign (picklable, no live state)."""

    programs: int
    generator: GeneratorConfig
    enabled_bugs: Tuple[str, ...] = ()
    platforms: Tuple[str, ...] = ("p4c", "bmv2", "tofino")
    max_tests: int = 4
    #: Packet count of the §6 test sequences (stateless programs collapse
    #: to single-packet tests, so this only costs solver time where a
    #: register/counter makes later packets observable).
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH
    #: ``1`` runs every unit in this process; ``N > 1`` runs them on a
    #: coordinator plus N locally forked workers (leased unit ranges over
    #: localhost TCP).
    jobs: int = 1
    artifact_path: Optional[str] = None
    #: Run the triage stage after merge: one reduction + localization per
    #: deduplicated report, sharded over the same executor.
    reduce: bool = False
    reduce_rounds: int = 8
    #: ``serve`` binds the coordinator on ``host:port`` and spawns *no*
    #: workers: externally started ``--worker`` processes drain the
    #: campaign.  Overrides ``jobs``.
    serve: Optional[str] = None
    #: ``schedule_rounds > 0`` splits the program budget into that many
    #: contiguous rounds and generates round *r* with
    #: ``ARM_CATALOG[r % len(ARM_CATALOG)]``
    #: (:func:`repro.core.schedule.round_plan`).  ``0`` runs one static
    #: round with ``generator`` as given.
    schedule_rounds: int = 0


@dataclass
class DetectionRecord:
    """Whether one seeded defect was detected, and how."""

    bug: SeededBug
    detected: bool
    technique: str = ""
    programs_tried: int = 0


class CampaignEngine:
    """Run campaigns and detection matrices over an executor.

    The executor is chosen from the spec (``serve`` → serve-only
    coordinator, ``jobs > 1`` → local worker fleet, else serial); tests
    can inject a pre-configured executor — typically a
    :class:`DistributedExecutor` with fault injection — via the
    ``executor`` override.
    """

    def __init__(self, spec: CampaignSpec, executor=None) -> None:
        self.spec = spec
        self.store = ArtifactStore(spec.artifact_path) if spec.artifact_path else None
        self._executor = executor

    def _make_executor(self):
        if self._executor is not None:
            return self._executor
        spec = self.spec
        if spec.serve:
            host, port = parse_address(spec.serve)
            return DistributedExecutor(0, host=host, port=port)
        if spec.jobs > 1:
            return DistributedExecutor(spec.jobs)
        return SerialExecutor()

    # ------------------------------------------------------------------
    # Campaign: one round loop, static (one round) or scheduled
    # ------------------------------------------------------------------

    def run(self) -> CampaignStatistics:
        """Run the campaign's generation rounds, then merge (and triage).

        A static campaign (``schedule_rounds == 0``) is one round over
        every program, generated with ``spec.generator`` and stored under
        the ``campaign`` scope.  A scheduled campaign runs the rounds of
        :func:`~repro.core.schedule.round_plan`: each generates its index
        range with its arm's knob vector and is stored under a
        ``scheduled`` key of the steered generator, so kill/resume reuses
        every finished round.  Outcomes of all rounds feed one merger.
        """

        spec = self.spec
        scope = "scheduled" if spec.schedule_rounds > 0 else "campaign"
        statistics = CampaignStatistics(programs_generated=spec.programs)
        merger = OutcomeMerger(spec.enabled_bugs)
        executor = self._make_executor()
        arm_by_index: Dict[int, Optional[KnobArm]] = {}
        for arm, indices in round_plan(spec.programs, spec.schedule_rounds):
            generator = arm.apply(spec.generator) if arm else spec.generator
            # Unknown platforms raise here, before any unit runs.
            units = build_units(
                programs=indices,
                platforms=tuple(spec.platforms),
                generator=generator,
                enabled_bugs=tuple(spec.enabled_bugs),
                max_tests=spec.max_tests,
                sequence_length=spec.sequence_length,
            )
            key = campaign_key(
                generator,
                spec.enabled_bugs,
                spec.platforms,
                spec.max_tests,
                scope=scope,
                sequence_length=spec.sequence_length,
            )
            completed: Dict[Tuple[int, str], UnitOutcome] = {}
            if self.store is not None:
                stored = self.store.load(key)
                completed = {
                    unit.key: stored[unit.key] for unit in units if unit.key in stored
                }
            pending = [unit for unit in units if unit.key not in completed]
            statistics.units_total += len(units)
            statistics.units_reused += len(completed)
            # Reused outcomes contribute their findings but not their
            # counters: CampaignStatistics.counters reports work performed
            # by *this* run, and the store units' solving happened earlier.
            for outcome in completed.values():
                merger.add(replace(outcome, counters={}), statistics)
            sink = None
            journal = None
            if self.store is not None:
                sink = lambda outcome, key=key: self.store.append(key, outcome)  # noqa: E731
                journal = lambda event, key=key: self.store.append_lease_event(  # noqa: E731
                    key, event
                )
            # The transport persists (sink) before the engine merges; under
            # the distributed executor the sink runs on the coordinator's
            # service threads while the merge stays here, on the consuming
            # thread.
            for outcome in executor.run_units(pending, sink=sink, journal=journal):
                merger.add(outcome, statistics)
            # Fold every round: the fleet resets its counters per run_units.
            self._fold_service_counters(executor, statistics)
            arm_by_index.update(dict.fromkeys(indices, arm))

        statistics = merger.finalize(statistics)
        self._annotate_arm_provenance(statistics, merger.provenance, arm_by_index)
        if spec.reduce:
            self._run_triage(executor, merger.provenance, statistics)
        return statistics

    @staticmethod
    def _annotate_arm_provenance(
        statistics: CampaignStatistics,
        provenance: Dict[str, TriageSource],
        arm_by_index: Dict[int, Optional[KnobArm]],
    ) -> None:
        """Stamp each filed report with the knob arm that generated it.

        Provenance keys the *winning* (lowest unit key) finding of each
        report, which is executor-invariant, so the stamped arm is too.
        Reports of a static campaign (no arm) stay unstamped.
        """

        for identifier, source in provenance.items():
            arm = arm_by_index.get(source.program_index)
            report = statistics.tracker.get(identifier)
            if arm is None or report is None:
                continue
            report.knob_arm = arm.name
            report.knob_overrides = arm.overrides_dict()

    @staticmethod
    def _fold_service_counters(executor, statistics: CampaignStatistics) -> None:
        """Accumulate the distributed transport's QoS counters, if any."""

        statistics.add_counters(getattr(executor, "service_counters", {}))

    # ------------------------------------------------------------------
    # Triage stage: reduce + localize each deduplicated report
    # ------------------------------------------------------------------

    def _run_triage(
        self,
        executor,
        provenance: Dict[str, TriageSource],
        statistics: CampaignStatistics,
    ) -> None:
        """Shard one reduction per filed report across the executor.

        Rides the same transport seam as generation units (triage units
        serialize, so a distributed fleet leases them too): fresh outcomes
        are streamed into the artifact store as they complete (a killed
        campaign resumes mid-triage without redoing finished reductions)
        and the merge onto the tracker is sorted, so the triaged reports
        are identical under every executor.
        """

        spec = self.spec
        units = [
            TriageUnit(
                identifier=source.identifier,
                platform=source.platform,
                source=source.source,
                finding=self._narrow_finding(source),
                enabled_bugs=tuple(spec.enabled_bugs),
                max_tests=spec.max_tests,
                reduce_rounds=spec.reduce_rounds,
                sequence_length=spec.sequence_length,
            )
            for _, source in sorted(provenance.items())
        ]
        statistics.triage_total = len(units)
        if not units:
            return
        key = triage_key(
            spec.generator,
            spec.enabled_bugs,
            spec.platforms,
            spec.max_tests,
            spec.reduce_rounds,
            sequence_length=spec.sequence_length,
        )
        completed: Dict[str, TriageOutcome] = {}
        if self.store is not None:
            stored = self.store.load_triage(key)
            completed = {
                unit.identifier: stored[unit.identifier]
                for unit in units
                if unit.identifier in stored
            }
        statistics.triage_reused = len(completed)
        pending = [unit for unit in units if unit.identifier not in completed]
        results: List[TriageOutcome] = list(completed.values())
        sink = None
        journal = None
        if self.store is not None:
            # Only successful reductions are persisted: an unreproduced
            # outcome may be environment-dependent (worker under memory /
            # recursion pressure), and storing it would pin the report as
            # unreduced on every resume.  Retrying costs one predicate call.
            def sink(outcome):
                if outcome.status == TRIAGE_REDUCED:
                    self.store.append_triage(key, outcome)

            journal = lambda event: self.store.append_lease_event(key, event)  # noqa: E731
        # As with generation units, only fresh outcomes add their counters.
        for outcome in executor.run_units(
            pending, kind=KIND_TRIAGE, sink=sink, journal=journal
        ):
            results.append(outcome)
            statistics.add_counters(outcome.counters)
        self._fold_service_counters(executor, statistics)
        apply_triage(statistics, results)

    def _narrow_finding(self, source: TriageSource) -> "FindingRecord":
        """Pin a bisected finding's triage to the defect this report names.

        When the worker attributed a packet mismatch to several independent
        defects, one report was filed per defect but they share the winning
        finding; the reduction for each report must chase *its* defect, not
        whichever of the set survives shrinking.
        """

        finding = source.finding
        if len(finding.attributed_bugs) <= 1:
            return finding
        _, _, bug_id = source.identifier.partition(":")
        if bug_id in finding.attributed_bugs:
            return replace(finding, attributed_bugs=(bug_id,))
        return finding

    # ------------------------------------------------------------------
    # Per-defect detection matrix
    # ------------------------------------------------------------------

    def run_detection_matrix(
        self,
        bug_ids: Optional[Sequence[str]] = None,
        programs_per_bug: int = 20,
    ) -> List[DetectionRecord]:
        """For each seeded defect, check whether Gauntlet detects it.

        One :class:`MatrixUnit` per defect runs on the executor; its tries
        are stored under a ``matrix`` key of its steered generator.
        """

        spec = self.spec
        targets = list(bug_ids) if bug_ids is not None else list(BUG_CATALOG)
        results: Dict[str, MatrixOutcome] = {}
        keys: Dict[str, str] = {}
        pending: List[MatrixUnit] = []
        # One unit per distinct defect: the fleet keys units by defect.
        for bug_id in dict.fromkeys(targets):
            bug = BUG_CATALOG[bug_id]
            # Static steering (paper §4.2: bias the generator towards the
            # constructs the defect needs) is the arm of the defect's
            # MATRIX_STEERING union.
            overrides = tuple(static_overrides_for_bug(bug).items())
            unit = MatrixUnit(
                bug_id=bug_id,
                platform="p4c" if bug.location != LOCATION_BACKEND else bug.platform,
                generator=KnobArm("static", overrides).apply(spec.generator),
                programs_per_bug=programs_per_bug,
                max_tests=spec.max_tests,
                sequence_length=spec.sequence_length,
            )
            keys[bug_id] = campaign_key(
                unit.generator,
                (bug_id,),
                (unit.platform,),
                spec.max_tests,
                scope="matrix",
                sequence_length=spec.sequence_length,
            )
            stored = self.store.load(keys[bug_id]) if self.store is not None else {}
            resumed = self._resume_matrix_unit(unit, stored)
            if isinstance(resumed, MatrixUnit):
                pending.append(resumed)
            else:
                results[bug_id] = resumed

        sink = None
        if self.store is not None:

            def sink(outcome: MatrixOutcome) -> None:
                for fresh in outcome.fresh:
                    self.store.append(keys[outcome.bug_id], fresh)

        executor = self._make_executor()
        for outcome in executor.run_units(pending, kind=KIND_MATRIX, sink=sink):
            results[outcome.bug_id] = outcome
        return [
            DetectionRecord(
                bug=BUG_CATALOG[bug_id],
                detected=results[bug_id].detected,
                technique=results[bug_id].technique,
                programs_tried=results[bug_id].attempts,
            )
            for bug_id in targets
        ]

    @staticmethod
    def _resume_matrix_unit(
        unit: MatrixUnit, stored: Dict[Tuple[int, str], UnitOutcome]
    ) -> Union[MatrixUnit, MatrixOutcome]:
        """Replay a defect's stored tries (a prefix of its try loop): the
        defect's result, or the unit that resumes the loop after them."""

        for index in range(unit.programs_per_bug):
            outcome = stored.get((index, unit.platform))
            if outcome is None:
                return replace(unit, start=index)
            if outcome.status == STATUS_FINDING:
                return MatrixOutcome(
                    unit.bug_id, True, detection_technique(outcome), index + 1
                )
        return MatrixOutcome(unit.bug_id, False, "", unit.programs_per_bug)
