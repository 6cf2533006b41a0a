#!/usr/bin/env python3
"""Run a small bug-finding campaign over randomly generated programs.

This example reproduces the paper's §7 methodology end to end: generate a
batch of random, well-typed P4 programs; compile them for P4C and every
registered back end (BMv2, Tofino, eBPF) with a selection of seeded
defects enabled; detect crash bugs from abnormal terminations, semantic
bugs with translation validation (open back ends), and semantic bugs with
symbolic-execution packet tests (closed back ends); and print Table
2/3-shaped summaries of the confirmed findings.

The campaign runs on the staged engine, and ``--artifacts PATH`` appends
every finished unit to a JSONL store so a killed campaign resumes where it
stopped (same command, same result).  Three ways to run it (all produce
the identical report, per the engine's determinism contract):

* ``--jobs N`` — in this process (``N = 1``, the default), or on a
  one-command fleet: an in-process coordinator plus N local worker
  processes that lease ``(program, platform)`` unit ranges from it over
  localhost TCP.
* ``--serve HOST:PORT`` — coordinator daemon only: bind the campaign's
  unit space and wait for workers to dial in and drain it.
* ``--worker HOST:PORT`` — stateless worker: join the coordinator at that
  address, lease ranges, stream outcomes back, exit when the campaign is
  drained.  Needs no campaign configuration at all.

Usage::

    python examples/bug_campaign.py [num_programs] [--jobs N]
        [--seed S] [--artifacts campaign.jsonl]
    python examples/bug_campaign.py --serve :9444 &
    python examples/bug_campaign.py --worker 127.0.0.1:9444
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.campaign import Campaign, CampaignConfig


ENABLED_BUGS = (
    # P4C front end
    "strength_reduction_negative_slice",
    "typecheck_shift_width_crash",
    "exit_ignores_copy_out",
    # P4C mid end
    "constant_folding_no_mask",
    "simplify_control_flow_empty_if",
    # Back ends
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
    "tofino_exit_in_action_crash",
    "ebpf_byte_order_swap",
)

DEFAULT_PLATFORMS = "p4c,bmv2,tofino,ebpf"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("programs", nargs="?", type=int, default=15,
                        help="number of random programs to generate (default 15)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes to shard work units across; above 1 "
                             "they lease units from a local coordinator (default 1)")
    parser.add_argument("--seed", type=int, default=2020,
                        help="campaign seed (default 2020)")
    parser.add_argument("--artifacts", metavar="PATH", default=None,
                        help="JSONL artifact store; re-running resumes from it")
    parser.add_argument("--platforms", default=DEFAULT_PLATFORMS,
                        help="comma-separated platform list "
                             f"(default {DEFAULT_PLATFORMS})")
    parser.add_argument("--reduce", action="store_true",
                        help="triage the findings: minimize every filed report's "
                             "trigger program and localize the defective pass")
    parser.add_argument("--schedule-rounds", type=int, metavar="N", default=0,
                        help="swarm generation: split the programs into N rounds, "
                             "each generated with the next generator knob arm "
                             "of the catalog (default 0: one static round)")
    parser.add_argument("--serve", metavar="HOST:PORT", default=None,
                        help="bind the campaign coordinator on this address and "
                             "wait for --worker processes to drain it")
    parser.add_argument("--worker", metavar="HOST:PORT", default=None,
                        help="join a campaign coordinator as a stateless worker "
                             "(ignores every other option)")
    args = parser.parse_args()

    if args.worker:
        from repro.core.engine.protocol import parse_address
        from repro.core.engine.worker import run_worker

        host, port = parse_address(args.worker)
        stats = run_worker(host, port, quiet=False)
        print(
            f"worker done: {stats['units']} units over {stats['leases']} leases "
            f"({stats['duplicates']} duplicates discarded)"
        )
        return

    platforms = tuple(
        name.strip() for name in args.platforms.split(",") if name.strip()
    )
    campaign = Campaign(
        CampaignConfig(
            programs=args.programs,
            seed=args.seed,
            enabled_bugs=ENABLED_BUGS,
            platforms=platforms,
            jobs=args.jobs,
            artifact_path=args.artifacts,
            reduce=args.reduce,
            serve=args.serve,
            schedule_rounds=args.schedule_rounds,
        )
    )
    if args.serve:
        print(f"serving campaign on {args.serve}; waiting for workers ...\n")
    else:
        print(
            f"generating and testing {args.programs} random programs "
            f"(jobs={args.jobs}) ...\n"
        )
    stats = campaign.run()

    print(f"programs generated : {stats.programs_generated}")
    print(f"unit rejections    : {stats.programs_rejected}")
    print(f"crash findings     : {stats.crash_findings}")
    print(f"semantic findings  : {stats.semantic_findings}")
    if stats.units_reused:
        print(f"units resumed      : {stats.units_reused}/{stats.units_total}")
    coverage = stats.coverage()
    if coverage:
        print(f"coverage cells lit : {len(coverage)}")
    gen0, gen1, full = (
        stats.counters.get(f"gc_gen{generation}_collections", 0)
        for generation in range(3)
    )
    print(f"gc collections     : {gen0} gen0, {gen1} gen1, {full} full")
    print(f"distinct bugs filed: {len(stats.tracker)}\n")

    service = {
        key[len("dist_"):]: value
        for key, value in sorted(stats.counters.items())
        if key.startswith("dist_")
    }
    if service:
        print("--- distributed service ---")
        print(
            f"  leases: {service.get('leases_issued', 0)} issued, "
            f"{service.get('leases_reclaimed', 0)} reclaimed, "
            f"{service.get('leases_completed', 0)} completed"
        )
        print(
            f"  stream: {service.get('outcomes_streamed', 0)} outcomes, "
            f"{service.get('bytes_streamed', 0)} bytes, "
            f"{service.get('duplicates_discarded', 0)} duplicates discarded, "
            f"{service.get('torn_lines', 0)} torn lines"
        )
        print(f"  workers seen: {service.get('workers_seen', 0)}\n")

    print("--- distinct bugs (deduplicated) ---")
    for report in stats.tracker.reports:
        seeded = f" [{report.seeded_bug_id}]" if report.seeded_bug_id else ""
        arm = f" (arm: {report.knob_arm})" if report.knob_arm else ""
        print(
            f"  {report.platform:7s} {report.kind.value:9s} "
            f"{report.pass_name:25s}{seeded}{arm}"
        )
        if report.reduced_source:
            pair = f", diverging pair {report.pass_pair}" if report.pass_pair else ""
            print(
                f"          reduced {report.reduction_ratio:.0%} of statements "
                f"({len(report.trigger_source)} -> {len(report.reduced_source)} chars), "
                f"localized to {report.localized_pass}{pair}"
            )
    if args.reduce and stats.triage_total:
        print(
            f"\ntriage: {stats.triage_total} reductions "
            f"({stats.triage_reused} resumed), "
            f"mean statement reduction {stats.mean_reduction_ratio():.0%}"
        )

    print("\n--- Table 2 shape: bug summary ---")
    summary = stats.summary_table()
    for kind in ("crash", "semantic"):
        for status, row in summary[kind].items():
            print(f"  {kind:9s} {status:9s} {row}")
    print(f"  totals: {summary['total']}")

    print("\n--- Table 3 shape: bug locations ---")
    for location, row in stats.location_table().items():
        print(f"  {location:10s} {row}")


if __name__ == "__main__":
    main()
