"""Bug-finding campaign orchestration (paper §7 methodology).

Two modes are provided:

* :meth:`Campaign.run` -- the "weekly batch" workflow: generate N random
  programs, compile them for each platform with a given set of seeded
  defects enabled, and collect deduplicated bug reports using all three
  techniques (crash detection, translation validation, symbolic-execution
  packet tests).
* :meth:`Campaign.run_detection_matrix` -- the reproduction-oriented view:
  for every seeded defect, run a small campaign with only that defect
  enabled and record whether Gauntlet detects it and with which technique.
  The Table 2/3 benchmarks are built from this matrix.

Since the staged-engine refactor this module is a thin facade: the actual
pipeline lives in :mod:`repro.core.engine`, which decomposes the campaign
into ``(program_index, platform)`` work units, shards them across a local
worker fleet when ``CampaignConfig.jobs > 1``, persists every unit outcome
to a JSONL artifact store when ``CampaignConfig.artifact_path`` is set (so an
interrupted campaign resumes where it stopped), and merges results
deterministically — a fixed seed files byte-identical bug reports whether
the campaign ran on one core or eight.

Two behavioural notes relative to the historical serial loop:

* program corpora are sharded deterministically — program ``i`` depends
  only on ``(seed, i)``, not on how many programs were generated before —
  so serial and parallel runs see the same programs, and
* a program rejected by p4c still gets compiled and packet-tested on the
  back-end platforms (rejection is per-platform; the back ends compile
  with a different defect set, so a front-end rejection says nothing
  about them).  ``programs_rejected`` therefore counts *unit* rejections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.engine import (
    CampaignEngine,
    CampaignSpec,
    CampaignStatistics,
    DetectionRecord,
)
from repro.core.generator import GeneratorConfig

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignStatistics",
    "DetectionRecord",
]


@dataclass
class CampaignConfig:
    """How many programs to generate and which defects to enable."""

    programs: int = 25
    seed: int = 0
    enabled_bugs: Sequence[str] = ()
    max_tests_per_program: int = 4
    #: Packets per §6 test sequence.  Stateful programs are replayed as
    #: multi-packet sequences against one persistent switch state; stateless
    #: programs always collapse to single-packet tests, so the default costs
    #: nothing on a register-free corpus.
    sequence_length: int = 3
    platforms: Sequence[str] = ("p4c", "bmv2", "tofino")
    generator: Optional[GeneratorConfig] = None
    #: Worker processes to shard ``(program, platform)`` units across.
    #: ``1`` runs everything in-process; ``N > 1`` forks N local workers
    #: that lease unit ranges from an in-process coordinator over TCP.
    jobs: int = 1
    #: JSONL artifact store path.  When set, every finished unit is
    #: appended there and a re-run with the same config resumes from the
    #: completed units instead of recomputing them.
    artifact_path: Optional[str] = None
    #: Triage the findings: after the merge, shrink every deduplicated
    #: report's trigger program with the delta-debugging reducer (the
    #: reduced program still fails the report's original oracle) and
    #: localize the defect to a compiler pass.  Triage units shard across
    #: the same workers and resume from the same artifact store.
    reduce: bool = False
    #: Round budget per reduction (each round cycles every transformation
    #: class to a fixpoint check).
    reduce_rounds: int = 8
    #: Serve-only deployment: bind the coordinator on this ``host:port``
    #: and wait for externally started workers (``bug_campaign.py
    #: --worker``) to drain the campaign.  Overrides ``jobs``.
    serve: Optional[str] = None
    #: Swarm generation: split the program budget into ``schedule_rounds``
    #: contiguous rounds and generate round *r* with knob arm
    #: ``ARM_CATALOG[r % len(ARM_CATALOG)]`` (:mod:`repro.core.schedule`).
    #: ``0`` (the default) is a static campaign: one round, one config.
    schedule_rounds: int = 0


class Campaign:
    """Run Gauntlet end to end over randomly generated programs."""

    def __init__(self, config: Optional[CampaignConfig] = None) -> None:
        self.config = config or CampaignConfig()

    def _spec(self) -> CampaignSpec:
        config = self.config
        generator = config.generator or GeneratorConfig(seed=config.seed)
        return CampaignSpec(
            programs=config.programs,
            generator=generator,
            enabled_bugs=tuple(config.enabled_bugs),
            platforms=tuple(config.platforms),
            max_tests=config.max_tests_per_program,
            sequence_length=config.sequence_length,
            jobs=config.jobs,
            artifact_path=config.artifact_path,
            reduce=config.reduce,
            reduce_rounds=config.reduce_rounds,
            serve=config.serve,
            schedule_rounds=config.schedule_rounds,
        )

    # ------------------------------------------------------------------
    # Full campaign
    # ------------------------------------------------------------------

    def run(self) -> CampaignStatistics:
        return CampaignEngine(self._spec()).run()

    # ------------------------------------------------------------------
    # Per-defect detection matrix
    # ------------------------------------------------------------------

    def run_detection_matrix(
        self,
        bug_ids: Optional[Sequence[str]] = None,
        programs_per_bug: int = 20,
    ) -> List[DetectionRecord]:
        """For each seeded defect, check whether Gauntlet detects it.

        Each defect's programs are steered with its static
        ``MATRIX_STEERING`` union (:mod:`repro.core.schedule`).
        """

        return CampaignEngine(self._spec()).run_detection_matrix(
            bug_ids=bug_ids, programs_per_bug=programs_per_bug
        )
