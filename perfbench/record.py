"""Record the corpus pools and their expected outputs into ``expected.json``.

Usage, from the repository root::

    python3 perfbench/record.py

For every pool workload and every corpus seed ``0 .. CORPORA-1`` it runs
``REPEATS`` untraced batches, one after another, and records the report
identifiers, a digest of the per-unit verdicts, a digest of the report
bytes, the oracle-error count, (for the triage workload) the mean statement
reduction, and the fastest batch's duration from spawn to exit, which ranks
corpora into cost strata and sets how many corpora fill a run.  It fails if
the repeats disagree.  Left out of the pool, and listed under ``excluded``,
is any corpus on which a unit ends in ``oracle_error``, or on which a clean
workload files a report: the benchmark only runs inputs on which no
operation fails.

Re-record only when the system's reports are meant to change; the run
checks every batch against this file.
"""

from __future__ import annotations

import json

from run import run_batch
from workloads import EXPECTED_PATH, POOLS, WORKLOADS

#: Corpus seeds per pool, and batches per corpus.
CORPORA = 48
REPEATS = 2


def record_corpus(workload, corpus: int) -> dict:
    entries = []
    for _ in range(REPEATS):
        batch = run_batch(workload, corpus, trace=False)
        entries.append(
            {
                "reports": batch["reports"],
                "verdicts_sha": batch["verdicts_sha"],
                "report_sha": batch["report_sha"],
                "verdict_counts": batch["verdict_counts"],
                "failed": batch["failed"],
                "mean_reduction": batch["triage"]["mean_reduction"],
                "cost_s": round(batch["batch_s"], 3),
            }
        )
    costs = [entry.pop("cost_s") for entry in entries]
    if any(entry != entries[0] for entry in entries):
        raise RuntimeError(f"{workload.name} corpus {corpus}: repeats disagree")
    return dict(entries[0], cost_s=min(costs))


def main() -> int:
    expected = {}
    for name in POOLS:
        workload = WORKLOADS[name]
        corpora, excluded = {}, {}
        for corpus in range(CORPORA):
            entry = record_corpus(workload, corpus)
            if entry["failed"]:
                excluded[str(corpus)] = f"{entry['failed']} oracle errors"
            elif workload.clean and entry["reports"]:
                excluded[str(corpus)] = f"clean corpus filed {entry['reports']}"
            else:
                corpora[str(corpus)] = entry
        expected[name] = {"config": workload.fingerprint(), "corpora": corpora, "excluded": excluded}
        print(f"{name}: {len(corpora)} corpora recorded, {len(excluded)} excluded", flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
