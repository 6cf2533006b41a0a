"""Staged campaign engine: parallel, resumable, deterministic bug-finding.

The engine decomposes a campaign into independent ``(program_index,
platform)`` work units, runs them through explicit stages
(``generate → compile(platform) → oracles → report``) on a pluggable
executor (serial, or a worker fleet sharding units across cores),
persists every outcome to a JSONL artifact store for crash-safe resume,
and merges results deterministically so serial and parallel runs file
byte-identical bug reports.

With ``reduce=True`` a **triage stage** runs after the merge: every
deduplicated report becomes one :class:`TriageUnit` that shrinks the
trigger program with the delta-debugging reducer
(:mod:`repro.core.reduce`) under an oracle-faithful predicate and
localizes the defect to a compiler pass (pair), riding the same executor
and artifact store as the generation units.

Two interchangeable executors sit behind one seam
(``run_units(units, kind, sink, journal)``): :class:`SerialExecutor`
(``jobs=1``) and :class:`DistributedExecutor` (``jobs=N``: N locally
forked workers; or serve-only, for workers started elsewhere) — a
campaign coordinator leasing contiguous unit ranges to a fleet of worker
processes over line-JSON TCP (:mod:`repro.core.engine.protocol`), with
heartbeat-based lease reclaim, streamed outcome shards, and incremental
merge.  Both file byte-identical reports.  A lease keeps every unit of
one program on one worker
(:func:`~repro.core.engine.units.program_groups`), so a program's cached
work runs once, as it does serially.  Generation, triage and
detection-matrix units (:data:`~repro.core.engine.units.KINDS`) all ride
the same seam.

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
from repro.core.engine.executor import SerialExecutor
from repro.core.engine.store import OutcomeDedup
from repro.core.engine.worker import run_worker
from repro.core.engine.merge import (
    CampaignStatistics,
    OutcomeMerger,
    TriageSource,
    apply_triage,
)
from repro.core.engine.stages import (
    reset_worker_state,
    run_matrix_unit,
    run_triage_unit,
    run_unit,
)
from repro.core.engine.store import ArtifactStore, campaign_key, triage_key
from repro.core.engine.units import (
    TRIAGE_REDUCED,
    TRIAGE_UNREPRODUCED,
    FindingRecord,
    MatrixOutcome,
    MatrixUnit,
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
    "MatrixOutcome",
    "MatrixUnit",
    "OutcomeDedup",
    "OutcomeMerger",
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
    "reset_worker_state",
    "run_matrix_unit",
    "run_triage_unit",
    "run_unit",
    "run_worker",
    "triage_key",
]
