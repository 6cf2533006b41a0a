"""Staged campaign engine: parallel, resumable, deterministic bug-finding.

The engine decomposes a campaign into independent ``(program_index,
platform)`` work units, runs them through explicit stages
(``generate → compile(platform) → oracles → report``) on a pluggable
executor (serial, or a ``multiprocessing`` pool sharding units across
cores), persists every outcome to a JSONL artifact store for crash-safe
resume, and merges results deterministically so serial and parallel runs
file byte-identical bug reports.

With ``reduce=True`` a **triage stage** runs after the merge: every
deduplicated report becomes one :class:`TriageUnit` that shrinks the
trigger program with the delta-debugging reducer
(:mod:`repro.core.reduce`) under an oracle-faithful predicate and
localizes the defect to a compiler pass (pair), riding the same executor
and artifact store as the generation units.

Three interchangeable transports sit behind one seam
(``run_units(units, kind, sink, journal)``): :class:`SerialExecutor`,
:class:`ProcessPoolExecutor`, and :class:`DistributedExecutor` — a
campaign coordinator leasing contiguous unit ranges to a fleet of worker
processes over line-JSON TCP (:mod:`repro.core.engine.protocol`), with
heartbeat-based lease reclaim, streamed outcome shards, and incremental
merge.  All three file byte-identical reports.  Both parallel transports
keep every unit of one program on one worker
(:func:`~repro.core.engine.units.program_groups`), so a program's cached
work runs once, as it does serially.

See :mod:`repro.core.engine.engine` for orchestration,
:mod:`repro.core.engine.stages` for the worker-side pipeline,
:mod:`repro.core.engine.coordinator` / :mod:`repro.core.engine.worker`
for the distributed service, and ``src/repro/core/README.md`` for the
architecture overview.
"""

from repro.core.engine.coordinator import CoordinatorService
from repro.core.engine.distributed import DistributedExecutor
from repro.core.engine.engine import (
    CampaignEngine,
    CampaignSpec,
    DetectionRecord,
)
from repro.core.engine.executor import (
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.core.engine.store import OutcomeDedup
from repro.core.engine.worker import run_worker
from repro.core.engine.merge import (
    CampaignStatistics,
    OutcomeMerger,
    TriageSource,
    apply_triage,
)
from repro.core.engine.stages import reset_worker_state, run_triage_unit, run_unit
from repro.core.engine.store import ArtifactStore, campaign_key, triage_key
from repro.core.engine.units import (
    TRIAGE_REDUCED,
    TRIAGE_UNREPRODUCED,
    FindingRecord,
    TriageOutcome,
    TriageUnit,
    UnitOutcome,
    WorkUnit,
    build_units,
)

__all__ = [
    "ArtifactStore",
    "CampaignEngine",
    "CampaignSpec",
    "CampaignStatistics",
    "CoordinatorService",
    "DetectionRecord",
    "DistributedExecutor",
    "FindingRecord",
    "OutcomeDedup",
    "OutcomeMerger",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "TRIAGE_REDUCED",
    "TRIAGE_UNREPRODUCED",
    "TriageOutcome",
    "TriageSource",
    "TriageUnit",
    "UnitOutcome",
    "WorkUnit",
    "apply_triage",
    "build_units",
    "campaign_key",
    "make_executor",
    "reset_worker_state",
    "run_triage_unit",
    "run_unit",
    "run_worker",
    "triage_key",
]
