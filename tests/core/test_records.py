"""The JSON form of every unit, outcome and report, pinned byte for byte.

Units cross the wire to fleet workers, outcomes cross it back and are
appended to the JSONL artifact store, and reports are compared across
executors by their ``to_dict``.  Key order is part of those bytes, so
each record's ``json.dumps`` line is hashed unsorted.  Every field of
every record holds a value other than its default, so a field the codec
dropped, renamed, reordered or re-encoded changes a digest.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.bugs import BugKind, BugLocation, BugReport, BugStatus
from repro.core.engine.units import (
    FindingRecord,
    MatrixOutcome,
    MatrixUnit,
    TriageOutcome,
    TriageUnit,
    UnitOutcome,
    WorkUnit,
)
from repro.core.generator import GeneratorConfig

GENERATOR = GeneratorConfig(seed=11, max_apply_statements=9, p_register=0.25)
BUGS = ("bmv2_wide_field_truncation", "exit_ignores_copy_out")
SOURCE = "control ingress(inout Headers hdr) { apply { hdr.h.a = 8w1; } }"

FINDING = FindingRecord(
    kind="semantic",
    platform="bmv2",
    pass_name="backend",
    description="packet test failed",
    signature="packet-mismatch",
    witness={"hdr.h.a": 7, "hdr.h.$valid": True},
    before_pass="ConstantFolding",
    attributed_bugs=BUGS,
)
OUTCOME = UnitOutcome(
    program_index=4,
    platform="bmv2",
    status="finding",
    findings=[FINDING],
    source=SOURCE,
    counters={"solver_checks": 3, "testgen_misses": 1},
    coverage={"pass:ConstantFolding": 1},
    elapsed_s=0.125,
)

RECORDS = [
    WorkUnit(
        program_index=4,
        platform="bmv2",
        generator=GENERATOR,
        enabled_bugs=BUGS,
        max_tests=6,
        sequence_length=2,
    ),
    FINDING,
    OUTCOME,
    TriageUnit(
        identifier="bmv2:bmv2_wide_field_truncation",
        platform="bmv2",
        source=SOURCE,
        finding=FINDING,
        enabled_bugs=BUGS,
        max_tests=5,
        reduce_rounds=3,
        sequence_length=2,
    ),
    TriageOutcome(
        identifier="bmv2:bmv2_wide_field_truncation",
        status="reduced",
        reduced_source=SOURCE,
        original_size=23,
        reduced_size=4,
        rounds=3,
        attempts=91,
        localized_pass="backend",
        pass_pair=("input", "ConstantFolding"),
        elapsed_s=0.5,
        transform_stats={"statements": {"oracle_calls": 9, "kept_edits": 4}},
        min_sequence_length=2,
        counters={"solver_checks": 12, "reduce_predicate_errors": 1},
    ),
    MatrixUnit(
        bug_id="tofino_slice_assignment_drop",
        platform="tofino",
        generator=GENERATOR,
        programs_per_bug=150,
        max_tests=5,
        sequence_length=2,
        start=7,
    ),
    MatrixOutcome(
        bug_id="tofino_slice_assignment_drop",
        detected=True,
        technique="symbolic_execution",
        attempts=8,
        fresh=[OUTCOME],
    ),
    BugReport(
        identifier="bmv2:bmv2_wide_field_truncation",
        kind=BugKind.SEMANTIC,
        platform="bmv2",
        location=BugLocation.BACK_END,
        pass_name="backend",
        description="packet test failed",
        status=BugStatus.CONFIRMED,
        trigger_source=SOURCE,
        witness={"hdr.h.a": 7},
        seeded_bug_id="bmv2_wide_field_truncation",
        reduced_source=SOURCE,
        reduction_ratio=0.75,
        reduction_rounds=3,
        localized_pass="ConstantFolding",
        pass_pair=("input", "ConstantFolding"),
        sequence_length=2,
        knob_arm="registers",
        knob_overrides={"p_register": 0.5},
    ),
]

#: sha256 of each record's ``json.dumps(record.to_dict())`` line.
DIGESTS = {
    "WorkUnit": "65c30f957f3d782b5147146ba0f8cf2fa2e07b2683bbe21e1b6663a3146e330c",
    "FindingRecord": "3be11db4dc0d434b052e16f2af996a3aafa4a749d470a9c3b9184eb6d32f5eda",
    "UnitOutcome": "d5daf5767a10991779daa34c1ba8eff169bc03d5a0d9b5f4a592d5ebab8d83fa",
    "TriageUnit": "6c79b6a93881bafb841a350aaf959d53c5e708ab610180960debb96a992bdb12",
    "TriageOutcome": "ff403c08e5ce2497ea72de967a60bf0dfa3706dea0945c31982db4b0afc76b99",
    "MatrixUnit": "87e0da127cf0a2ea9d841b039b7d6003405390f5dfd0c4f5a899af721fdf0afa",
    "MatrixOutcome": "3d0b4cba76c47969bfa991011ffa0a198fd90fe7f711d0c7a269979774aa1479",
    "BugReport": "1cef5bc20f6d17d8da5fdb7509562b4b0013b87c4ac7f6f94360fa1d37d9df61",
}


def _line(record):
    return json.dumps(record.to_dict())


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_json_form_is_pinned(record):
    digest = hashlib.sha256(_line(record).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[type(record).__name__]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_json_form_round_trips(record):
    assert type(record).from_dict(json.loads(_line(record))) == record


def test_a_triage_line_written_before_counters_decodes():
    """Stores written before triage outcomes carried counters resume: the
    missing field takes its default."""

    (triage,) = [record for record in RECORDS if isinstance(record, TriageOutcome)]
    older = {key: value for key, value in triage.to_dict().items() if key != "counters"}
    decoded = TriageOutcome.from_dict(json.loads(json.dumps(older)))
    assert decoded.counters == {}
    assert decoded == dataclasses.replace(triage, counters={})


@pytest.mark.parametrize(
    "cls, payload",
    [
        (TriageOutcome, {"identifier": "x", "status": "done", "transform_stats": "x"}),
        (TriageOutcome, {"identifier": "x", "status": "done", "pass_pair": 5}),
        (BugReport, {**RECORDS[-1].to_dict(), "kind": "no-such-kind"}),
    ],
)
def test_malformed_payloads_raise_type_or_value_errors(cls, payload):
    # The coordinator refuses an outcome, and the store's resume skips a
    # line, on exactly these two errors.
    with pytest.raises((TypeError, ValueError)):
        cls.from_dict(payload)
