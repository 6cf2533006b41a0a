"""The benchmark's workloads: one campaign configuration per corpus seed.

A run measures a sequence of *batches*.  Each batch is one complete
campaign over one corpus, run in a fresh process so that every process-wide
cache (prefix memo, validation caches, test-generation cache, hash-cons
intern table) starts cold, exactly as it does for a campaign a user starts.

Corpora come from a recorded pool (``expected.json``): ``record.py`` ran
every corpus seed of the pool, stored the report identifiers and per-unit
verdicts the campaign files on it and its cost, and left out corpora on
which a unit ends in ``oracle_error``.  The run seed picks one corpus from
each cost stratum of the pool (stratified sampling: runs with different
seeds get different programs but a similar amount of work), so the same
seed gives the same inputs.

This module imports nothing from the system under test, so ``run.py`` can
fail fast (without printing a result) where the sources are missing.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Fewest corpora (cost strata) a run draws, however short.
MIN_CORPORA = 2

#: The eight defects the repository's triage bench enables: findings on
#: every platform and from every technique, so the reducer, the backend
#: bisection and the localizer all get work.
REDUCE_BUGS = (
    "strength_reduction_negative_slice",
    "typecheck_shift_width_crash",
    "exit_ignores_copy_out",
    "constant_folding_no_mask",
    "simplify_control_flow_empty_if",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
    "tofino_exit_in_action_crash",
)

@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build a batch's campaign."""

    name: str
    why: str
    #: Programs per batch (one campaign per batch).
    programs: int
    platforms: Tuple[str, ...] = ("p4c", "bmv2", "tofino")
    enabled_bugs: Tuple[str, ...] = ()
    #: ``GeneratorConfig`` overrides on top of the corpus seed.
    generator: Dict[str, object] = field(default_factory=dict)
    sequence_length: int = 3
    reduce: bool = False
    #: Local fleet size (0 = serial, ``jobs=1``).
    distributed: int = 0
    #: Workload whose recorded corpus pool (and expectations) this one uses.
    pool: str = ""

    @property
    def pool_name(self) -> str:
        return self.pool or self.name

    @property
    def clean(self) -> bool:
        return not self.enabled_bugs

    def fingerprint(self) -> Dict[str, object]:
        """What a recorded pool depends on (everything but the executor)."""

        return {
            "programs": self.programs,
            "platforms": list(self.platforms),
            "enabled_bugs": list(self.enabled_bugs),
            "generator": dict(self.generator),
            "sequence_length": self.sequence_length,
            "reduce": self.reduce,
        }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="clean-hotpath",
            why=(
                "steady state of a real campaign: default generator, no defects, "
                "p4c+bmv2+tofino at jobs=1 with cold caches; reparse, "
                "interpretation and SAT dominate"
            ),
            programs=40,
        ),
        Workload(
            name="seeded-triage",
            why=(
                "eight seeded defects with reduce=True at jobs=1: the only "
                "workload running witness re-walks, backend-defect bisection "
                "and the reducer's oracle loop"
            ),
            programs=25,
            enabled_bugs=REDUCE_BUGS,
            reduce=True,
        ),
        Workload(
            name="fleet-2",
            why=(
                "clean-hotpath corpora on a coordinator plus two local TCP "
                "workers: the only workload exercising the coordinator, "
                "worker and protocol"
            ),
            programs=40,
            distributed=2,
            pool="clean-hotpath",
        ),
    )
}

#: Pools that ``record.py`` records (fleet-2 reuses the clean pool).
POOLS = ("clean-hotpath", "seeded-triage")


def load_expected() -> Dict[str, Dict[str, object]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def corpus_plan(workload: Workload, seed: int, costs: Dict[int, float], seconds: float) -> List[int]:
    """The run's corpora: one per cost stratum of the pool, drawn by the seed.

    There are as many strata as corpora of the pool's median recorded cost
    fill ``seconds`` (at least ``MIN_CORPORA``), so the work a run does
    depends on its seed and length alone.  Keyed by pool, so workloads
    sharing a pool run the same corpora at the same seed (``fleet-2`` and
    ``clean-hotpath`` file identical reports).
    """

    count = max(MIN_CORPORA, round(seconds / statistics.median(costs.values())))
    ranked = sorted(costs, key=lambda corpus: (costs[corpus], corpus))
    rng = random.Random(f"{workload.pool_name}:{seed}")
    size = len(ranked) / count
    return [
        rng.choice(ranked[round(stratum * size):round((stratum + 1) * size)])
        for stratum in range(count)
    ]
