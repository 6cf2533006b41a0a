"""One benchmark batch: one campaign over one corpus, in a fresh process.

Usage (``run.py`` and ``record.py`` start it; it is not meant to be run by
hand)::

    python3 perfbench/batch.py --workload clean-hotpath --corpus 3 \
        --spawned-at <time.monotonic() of the parent> --trace 0

It drives the system only through public entry points: a
``CampaignEngine`` built from a ``CampaignSpec``, with the executor passed
in wrapped by :class:`TimedExecutor`.  It prints one JSON object holding
the batch's timings, verdicts, reports and counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from collections import Counter

from workloads import ROOT, WORKLOADS

sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import smt  # noqa: E402
from repro.core.engine import (  # noqa: E402
    CampaignEngine,
    CampaignSpec,
    DistributedExecutor,
    SerialExecutor,
)
from repro.core.engine.units import KIND_TRIAGE, KIND_WORK, STATUS_ORACLE_ERROR  # noqa: E402
from repro.core.generator import GeneratorConfig  # noqa: E402
from tracer import Tracer  # noqa: E402


class TimedExecutor:
    """Pass-through executor that timestamps each phase and each outcome."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.jobs = getattr(inner, "jobs", 1)
        #: ``(kind, start, end)`` per ``run_units`` call, monotonic seconds.
        self.phases = []
        #: ``(kind, arrival, outcome)`` in completion order.
        self.outcomes = []

    @property
    def service_counters(self):
        return getattr(self.inner, "service_counters", {})

    def run_units(self, units, kind=KIND_WORK, sink=None, journal=None):
        start = time.monotonic()
        for outcome in self.inner.run_units(units, kind=kind, sink=sink, journal=journal):
            self.outcomes.append((kind, time.monotonic(), outcome))
            yield outcome
        self.phases.append((kind, start, time.monotonic()))


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed now.

    The speed of a shared machine drifts (by up to 1.5x over minutes on a
    2-CPU VM), and the campaign, pure Python as well, slows with it.  The
    loop is timed in the batch's own process right before and right after
    the campaign; ``run.py`` scales the batch's timings by it.
    """

    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for number in range(200_000):
            total += number * number % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[2]


def run_batch(workload_name: str, corpus: int, spawned_at: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    began = time.monotonic()
    reference_before = reference_s()
    reference_wall = time.monotonic() - began
    spec = CampaignSpec(
        programs=workload.programs,
        generator=GeneratorConfig(seed=corpus, **workload.generator),
        enabled_bugs=workload.enabled_bugs,
        platforms=workload.platforms,
        sequence_length=workload.sequence_length,
        reduce=workload.reduce,
    )
    inner = DistributedExecutor(workload.distributed) if workload.distributed else SerialExecutor()
    executor = TimedExecutor(inner)
    engine = CampaignEngine(spec, executor=executor)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    start = time.monotonic()
    try:
        statistics = engine.run()
    finally:
        wall = time.monotonic() - start
        if tracer is not None:
            tracer.uninstall()
    reference_after = reference_s()

    work = [(arrival, outcome) for kind, arrival, outcome in executor.outcomes if kind == KIND_WORK]
    triage = [outcome for kind, _, outcome in executor.outcomes if kind == KIND_TRIAGE]
    first_arrival, first = work[0]
    reports = sorted(statistics.tracker.reports, key=lambda report: report.identifier)
    verdicts = sorted([o.program_index, o.platform, o.status] for _, o in work)
    triage_wall = sum(end - begin for kind, begin, end in executor.phases if kind == KIND_TRIAGE)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "corpus": corpus,
        "trace": trace,
        "units": len(work),
        "jobs": executor.jobs,
        "wall_s": wall,
        "reference_s": (reference_before + reference_after) / 2.0,
        # The first unit started computing at (arrival - its own time):
        # everything before that but the reference loop is set-up,
        # including fleet bind and fork.
        "setup_s": first_arrival - first.elapsed_s - spawned_at - reference_wall,
        "rss_mb": (usage_self + usage_children) / 1024.0,
        "unit_elapsed_s": {
            f"{outcome.program_index}:{outcome.platform}": outcome.elapsed_s for _, outcome in work
        },
        "verdict_counts": dict(Counter(status for _, _, status in verdicts)),
        "verdicts_sha": _sha(verdicts),
        "failed": sum(1 for _, _, status in verdicts if status == STATUS_ORACLE_ERROR),
        "reports": [report.identifier for report in reports],
        "report_sha": _sha([report.to_dict() for report in reports]),
        "triage": {
            "reports": len(triage),
            "wall_s": triage_wall,
            "unit_s": sum(outcome.elapsed_s for outcome in triage),
            "mean_reduction": statistics.mean_reduction_ratio(),
            "oracle_calls": sum(outcome.attempts for outcome in triage),
            "kept_edits": sum(
                entry.get("kept_edits", 0)
                for outcome in triage
                for entry in outcome.transform_stats.values()
            ),
        },
        "counters": dict(statistics.counters),
        "gauges": {
            "intern_terms": smt.intern_table_size(),
            "simplify_entries": smt.simplify_cache_size(),
        },
        "layers": tracer.summary() if tracer is not None else {},
        "counts": dict(tracer.counts) if tracer is not None else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--corpus", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_batch(args.workload, args.corpus, args.spawned_at, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
