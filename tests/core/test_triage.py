"""Tests for the triage stage: reduction, oracles, localization, engine.

The stage's contract, mirroring the engine's own three legs:

* **oracle faithfulness** — a reduced trigger still fails the *original*
  oracle (same crash signature / same defective pass / a packet-test
  mismatch on the same back end), and every candidate is re-typechecked
  so reduction can never "confirm" on an ill-formed program;
* **determinism** — ``jobs=1`` and ``jobs=4`` triage byte-identical
  reports;
* **resume** — a campaign killed mid-triage resumes without redoing the
  finished reductions.
"""

import hashlib
import json
import os

import pytest

from repro import metrics
from repro.compiler import CompilerOptions, P4Compiler
from repro.core.bugs import BUG_REPORT_SCHEMA, BugKind, BugLocation, BugReport
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine import (
    TRIAGE_REDUCED,
    TRIAGE_UNREPRODUCED,
    ArtifactStore,
    TriageOutcome,
    TriageUnit,
    run_triage_unit,
)
from repro.core.engine import stages
from repro.core.engine.units import FindingRecord
from repro.core.reduce import build_predicate, oracles, program_size, reduce_program
from repro.core.reduce.localize import crash_pass_pair, localize_finding
from repro.core.reduce.oracles import platform_bugs, platform_verdict
from repro.core.validation import TranslationValidator
from repro.p4 import emit_program, parse_program
from repro.p4.typecheck import check_program

#: The reference seeded-defect selection (one per technique and platform).
ENABLED = (
    "strength_reduction_negative_slice",
    "typecheck_shift_width_crash",
    "exit_ignores_copy_out",
    "constant_folding_no_mask",
    "simplify_control_flow_empty_if",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
    "tofino_exit_in_action_crash",
)


def reference_config(**overrides):
    defaults = dict(
        programs=25, seed=2020, enabled_bugs=ENABLED, reduce=True
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def reports(stats):
    return [report.to_dict() for report in stats.tracker.reports]


# ----------------------------------------------------------------------
# Reducer: the typecheck gate
# ----------------------------------------------------------------------

GATED_PROGRAM = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    apply {
        bit<8> tmp = 8w7;
        hdr.h.a = tmp + 8w1;
        hdr.h.b = 8w2;
    }
}
"""


class TestTypecheckGate:
    def test_candidates_are_retypechecked(self):
        # Regression for the latent reducer bug: an oracle that answers
        # True unconditionally used to let the reducer delete the
        # declaration of ``tmp`` while its use survived -- "confirming"
        # the bug on a program the front end would reject.  The gate must
        # keep every kept candidate well-formed.
        program = parse_program(GATED_PROGRAM)
        seen_ill_typed = []

        def gullible_oracle(candidate, source):
            try:
                check_program(candidate)
            except Exception:
                seen_ill_typed.append(True)
            return True

        result = reduce_program(program, gullible_oracle)
        assert result.reproduced
        check_program(result.program)  # must not raise
        assert not seen_ill_typed  # the predicate never saw an ill-typed candidate

    def test_predicate_exceptions_mean_keep(self):
        program = parse_program(GATED_PROGRAM)
        calls = []

        def exploding_oracle(candidate, source):
            if calls:
                raise RuntimeError("oracle infrastructure failure")
            calls.append(True)
            return True  # reproduce the original once, then explode

        result = reduce_program(program, exploding_oracle)
        # Nothing was reduced (every candidate "failed"), nothing raised.
        assert result.reproduced
        assert result.reduced_size == result.original_size

    def test_unreproduced_finding_returns_original(self):
        program = parse_program(GATED_PROGRAM)
        result = reduce_program(program, lambda candidate, source: False)
        assert not result.reproduced
        assert result.program is program


# ----------------------------------------------------------------------
# Localization
# ----------------------------------------------------------------------

CRASHING_PROGRAM = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    apply {
        hdr.h.a = hdr.h.b << 8w9;
    }
}
"""


class TestLocalization:
    def test_names_the_crashing_pass_and_its_predecessor(self):
        program = parse_program(CRASHING_PROGRAM)
        enabled = ("strength_reduction_negative_slice",)
        localized, pair = crash_pass_pair(
            program, signature="negative-slice-index", enabled_bugs=enabled
        )
        passes = [entry.name for entry in P4Compiler(CompilerOptions()).passes()]
        culprit = passes.index("StrengthReduction")
        assert localized == "StrengthReduction"
        assert pair == (passes[culprit - 1], "StrengthReduction")

    def test_a_crash_in_the_first_pass_pairs_with_the_input(self):
        source = CRASHING_PROGRAM.replace("hdr.h.b << 8w9", "1 << hdr.h.b")
        program = parse_program(source)
        enabled = ("typecheck_shift_width_crash",)
        localized, pair = crash_pass_pair(
            program, signature="typeinference-shift-width", enabled_bugs=enabled
        )
        assert localized == "TypeChecking"
        assert pair == ("input", "TypeChecking")

    def test_falls_back_when_signature_does_not_reproduce(self):
        program = parse_program(GATED_PROGRAM)
        finding = FindingRecord(
            kind="crash",
            platform="p4c",
            pass_name="StrengthReduction",
            description="",
            signature="no-such-signature",
        )
        localized, pair = localize_finding(finding, program, "p4c", ENABLED)
        assert localized == "StrengthReduction"  # the oracle's original answer
        assert pair is None

    def test_backend_findings_stay_at_the_platform_boundary(self):
        program = parse_program(GATED_PROGRAM)
        finding = FindingRecord(
            kind="semantic",
            platform="tofino",
            pass_name="backend",
            description="packet mismatch",
        )
        localized, pair = localize_finding(finding, program, "tofino", ENABLED)
        assert localized == "backend"
        assert pair is None


# ----------------------------------------------------------------------
# Oracle fidelity: every predicate asks the unit's own oracle
# ----------------------------------------------------------------------

#: ``tests/core/test_validation.py``'s Predication program: with
#: ``midend_emit_missing_parens`` the Predication pass emits a program that
#: no longer reparses.
PREDICATION_PROGRAM = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; Hdr_t eth; }
control ingress(inout Headers hdr) {
    action cond_set() {
        if (hdr.h.a == 8w1) {
            hdr.h.b = 8w2;
        }
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { cond_set(); NoAction(); }
        default_action = NoAction();
    }
    apply {
        t.apply();
    }
}
"""


def parsed(source):
    program = parse_program(source)
    return program, emit_program(program)


class TestOracleFidelity:
    def test_predicate_compiles_with_the_findings_platform_defects(self):
        # A bmv2 unit compiles with bmv2's defect set, which leaves the
        # mid-end defect out: it reports this program clean, so the
        # predicate of a bmv2 invalid-transformation finding must reject it.
        program, source = parsed(PREDICATION_PROGRAM)
        enabled = ("midend_emit_missing_parens",)
        bugs = platform_bugs(enabled, "bmv2")
        assert platform_verdict(program, source, "bmv2", bugs) == ("clean", None)
        finding = FindingRecord(
            kind="invalid_transformation",
            platform="bmv2",
            pass_name="Predication",
            description="",
        )
        assert not build_predicate(finding, "bmv2", enabled)(program, source)
        # The same finding on p4c does reproduce.
        finding.platform = "p4c"
        assert build_predicate(finding, "p4c", enabled)(program, source)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count translation validations and test-generation requests."""

        counted = {"validate": 0, "sequences": 0}
        validate = TranslationValidator.validate_compilation
        sequences = oracles.cached_sequences

        def counting_validate(self, result):
            counted["validate"] += 1
            return validate(self, result)

        def counting_sequences(*args, **kwargs):
            counted["sequences"] += 1
            return sequences(*args, **kwargs)

        monkeypatch.setattr(
            TranslationValidator, "validate_compilation", counting_validate
        )
        monkeypatch.setattr(oracles, "cached_sequences", counting_sequences)
        return counted

    def test_crash_predicates_only_compile(self, calls):
        program, source = parsed(CRASHING_PROGRAM)
        enabled = ("strength_reduction_negative_slice", "bmv2_table_key_order_crash")
        for platform in ("p4c", "bmv2"):
            finding = FindingRecord(
                kind="crash",
                platform=platform,
                pass_name="StrengthReduction",
                description="",
                signature="negative-slice-index",
            )
            build_predicate(finding, platform, enabled)(program, source)
        assert calls == {"validate": 0, "sequences": 0}

    def test_packet_predicates_never_validate(self, calls):
        program, source = parsed(GATED_PROGRAM)
        finding = FindingRecord(
            kind="semantic", platform="tofino", pass_name="backend", description=""
        )
        build_predicate(finding, "tofino", ENABLED)(program, source)
        assert calls == {"validate": 0, "sequences": 1}

    def test_p4c_divergence_predicates_never_generate_tests(self, calls):
        program, source = parsed(GATED_PROGRAM)
        finding = FindingRecord(
            kind="semantic", platform="p4c", pass_name="ConstantFolding", description=""
        )
        build_predicate(finding, "p4c", ENABLED)(program, source)
        assert calls == {"validate": 1, "sequences": 0}


# ----------------------------------------------------------------------
# Wire format round trips
# ----------------------------------------------------------------------

class TestRoundTrips:
    def test_triage_outcome_json_round_trip(self):
        outcome = TriageOutcome(
            identifier="p4c:constant_folding_no_mask",
            status=TRIAGE_REDUCED,
            reduced_source="control ingress...",
            original_size=23,
            reduced_size=2,
            rounds=3,
            attempts=91,
            localized_pass="ConstantFolding",
            pass_pair=("input", "ConstantFolding"),
            elapsed_s=0.4,
        )
        assert TriageOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict()))
        ) == outcome

    def test_bug_report_round_trip_with_triage_fields(self):
        report = BugReport(
            identifier="p4c:x",
            kind=BugKind.SEMANTIC,
            platform="p4c",
            location=BugLocation.MID_END,
            pass_name="ConstantFolding",
            description="d",
            reduced_source="control c...",
            reduction_ratio=0.83,
            reduction_rounds=3,
            localized_pass="ConstantFolding",
            pass_pair=("input", "ConstantFolding"),
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["schema_version"] == BUG_REPORT_SCHEMA
        assert BugReport.from_dict(payload) == report

    def test_schema_v1_payload_still_loads(self):
        # A report exported before the triage stage has neither a
        # schema_version key nor the triage fields.
        payload = {
            "identifier": "p4c:old",
            "kind": "crash",
            "platform": "p4c",
            "location": "front_end",
            "pass_name": "TypeChecking",
            "description": "old-style report",
            "status": "confirmed",
            "trigger_source": "control ...",
            "witness": {},
            "seeded_bug_id": None,
        }
        report = BugReport.from_dict(payload)
        assert report.reduced_source == ""
        assert report.pass_pair is None
        assert report.reduction_ratio == 0.0

    def test_newer_schema_is_rejected(self):
        payload = {"schema_version": BUG_REPORT_SCHEMA + 1, "identifier": "x"}
        with pytest.raises(ValueError, match="newer than supported"):
            BugReport.from_dict(payload)


# ----------------------------------------------------------------------
# The reference campaign (acceptance criteria)
# ----------------------------------------------------------------------

#: sha256 of the reference campaign's reports (``json.dumps(...,
#: sort_keys=True)``), 7 reports, recorded with Python 3.11.
REFERENCE_REPORTS_SHA256 = (
    "0ca46c0d766f8072a2299d7186f3104a91a8557eac117978c8820cc2671b6ba1"
)


@pytest.fixture(scope="module")
def triaged_campaign():
    return Campaign(reference_config()).run()


class TestReferenceCampaign:
    def test_campaign_finds_and_triages_bugs(self, triaged_campaign):
        stats = triaged_campaign
        assert len(stats.tracker) > 0
        assert stats.triage_total == len(stats.tracker)
        assert all(report.reduced_source for report in stats.tracker.reports)

    def test_mean_statement_reduction_at_least_half(self, triaged_campaign):
        assert triaged_campaign.mean_reduction_ratio() >= 0.5

    def test_reduced_sources_shrink_and_still_typecheck(self, triaged_campaign):
        for report in triaged_campaign.tracker.reports:
            original = parse_program(report.trigger_source)
            reduced = parse_program(report.reduced_source)
            check_program(reduced)  # must not raise
            assert program_size(reduced) <= program_size(original)

    def test_semantic_reductions_still_trip_their_oracle(self, triaged_campaign):
        semantic = [
            report
            for report in triaged_campaign.tracker.reports
            if report.kind != BugKind.CRASH
        ]
        assert semantic
        for report in semantic:
            finding = FindingRecord(
                kind=report.kind.value,
                platform=report.platform,
                pass_name=report.pass_name,
                description=report.description,
            )
            still_fails = build_predicate(
                finding, report.platform, ENABLED, max_tests=4
            )
            reduced = parse_program(report.reduced_source)
            assert still_fails(reduced, emit_program(reduced)), (
                f"{report.identifier}: reduced source no longer trips its oracle"
            )

    def test_every_crash_bug_names_a_localized_pass(self, triaged_campaign):
        crashes = [
            report
            for report in triaged_campaign.tracker.reports
            if report.kind == BugKind.CRASH
        ]
        assert crashes
        for report in crashes:
            assert report.localized_pass, f"{report.identifier} is unlocalized"
            if report.platform == "p4c":
                assert report.pass_pair is not None
                assert report.pass_pair[1] == report.localized_pass

    def test_parallel_triage_is_byte_identical(self, triaged_campaign):
        parallel = Campaign(reference_config(jobs=4)).run()
        assert reports(parallel) == reports(triaged_campaign)

    def test_reports_match_recorded_digest(self, triaged_campaign):
        """Pins every reduction, localization and report of the campaign:
        a reducer change that moves any reduced source moves the digest."""

        filed = reports(triaged_campaign)
        digest = hashlib.sha256(json.dumps(filed, sort_keys=True).encode()).hexdigest()
        assert len(filed) == 7
        assert digest == REFERENCE_REPORTS_SHA256


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------

class TestTriageResume:
    def _config(self, tmp_path, **overrides):
        return reference_config(
            programs=10,
            seed=3,
            artifact_path=os.path.join(str(tmp_path), "artifacts.jsonl"),
            **overrides,
        )

    def test_kill_mid_triage_resumes_without_redoing_reductions(self, tmp_path):
        config = self._config(tmp_path)
        first = Campaign(config).run()
        assert first.triage_total >= 2
        assert first.triage_reused == 0

        # Simulate a SIGKILL between two reductions: every unit outcome is
        # on disk, only some triage lines are, and the final line is torn.
        path = config.artifact_path
        lines = open(path).read().splitlines(True)
        unit_lines = [line for line in lines if '"outcome"' in line]
        triage_lines = [line for line in lines if '"triage"' in line]
        assert len(triage_lines) == first.triage_total
        with open(path, "w") as handle:
            handle.writelines(unit_lines + triage_lines[:2])
            handle.write('{"key": "torn mid-wri')

        resumed = Campaign(self._config(tmp_path)).run()
        assert resumed.units_reused == resumed.units_total
        assert resumed.triage_reused == 2
        assert resumed.triage_total == first.triage_total
        assert reports(resumed) == reports(first)

    def test_completed_triage_is_fully_reused(self, tmp_path):
        config = self._config(tmp_path)
        first = Campaign(config).run()
        again = Campaign(self._config(tmp_path)).run()
        assert again.triage_reused == again.triage_total == first.triage_total
        assert reports(again) == reports(first)

    def test_unreproduced_outcomes_are_not_persisted(self, tmp_path, monkeypatch):
        # An unreproduced reduction may be an environment artifact (worker
        # under pressure); storing it would pin the report as unreduced on
        # every resume.  It must be retried instead.
        from repro.core.engine import stages as stages_module

        config = self._config(tmp_path)

        def always_unreproduced(unit):
            return TriageOutcome(identifier=unit.identifier, status="unreproduced")

        # Executors resolve the triage runner from the stages module at
        # run time, so that is the seam to break.
        monkeypatch.setattr(stages_module, "run_triage_unit", always_unreproduced)
        broken = Campaign(config).run()
        assert broken.triage_total > 0
        assert not any(
            '"triage"' in line for line in open(config.artifact_path)
        )

        monkeypatch.undo()
        retried = Campaign(self._config(tmp_path)).run()
        assert retried.triage_reused == 0
        assert all(report.reduced_source for report in retried.tracker.reports)

    def test_round_budget_is_part_of_the_store_key(self, tmp_path):
        Campaign(self._config(tmp_path)).run()
        other = Campaign(self._config(tmp_path, reduce_rounds=2)).run()
        # Units are reused (same campaign key) but reductions are not: a
        # different round budget can reach a different fixpoint.
        assert other.units_reused == other.units_total
        assert other.triage_reused == 0

    def test_triage_lines_do_not_confuse_the_unit_loader(self, tmp_path):
        config = self._config(tmp_path)
        Campaign(config).run()
        store = ArtifactStore(config.artifact_path)
        # Unit loader must skip triage lines and vice versa.
        from repro.core.engine import campaign_key, triage_key
        from repro.core.generator import GeneratorConfig

        generator = GeneratorConfig(seed=3)
        work_key = campaign_key(
            generator, ENABLED, ("p4c", "bmv2", "tofino"), 4, sequence_length=3
        )
        reduce_key = triage_key(
            generator,
            ENABLED,
            ("p4c", "bmv2", "tofino"),
            4,
            reduce_rounds=8,
            sequence_length=3,
        )
        units = store.load(work_key)
        triaged = store.load_triage(reduce_key)
        assert units and triaged
        assert store.load_triage(work_key) == {}
        assert store.load(reduce_key) == {}

    def test_triage_counters_reach_the_campaign_counters(self, tmp_path, monkeypatch):
        """Fresh triage units add their counter growth to the campaign's
        counters; resumed ones add nothing, as resumed generation units."""

        from repro.core.engine import stages as stages_module

        metrics.declare("test_triage_units")
        real = stages_module._reduce_and_localize

        def counted(unit):
            metrics.COUNTERS["test_triage_units"] += 1
            return real(unit)

        monkeypatch.setattr(stages_module, "_reduce_and_localize", counted)
        first = Campaign(self._config(tmp_path)).run()
        assert first.triage_total >= 2
        assert first.counters["test_triage_units"] == first.triage_total
        resumed = Campaign(self._config(tmp_path)).run()
        assert resumed.triage_reused == resumed.triage_total
        assert resumed.counters.get("test_triage_units", 0) == 0

    def test_a_store_written_before_triage_counters_resumes(self, tmp_path):
        config = self._config(tmp_path)
        first = Campaign(config).run()
        lines = []
        for line in open(config.artifact_path):
            entry = json.loads(line)
            if "triage" in entry:
                assert "counters" in entry["triage"]
                del entry["triage"]["counters"]
            lines.append(json.dumps(entry) + "\n")
        with open(config.artifact_path, "w") as handle:
            handle.writelines(lines)

        resumed = Campaign(self._config(tmp_path)).run()
        assert resumed.triage_reused == resumed.triage_total == first.triage_total
        assert reports(resumed) == reports(first)


# ----------------------------------------------------------------------
# Triage units run standalone (the examples/reduce_bug.py path)
# ----------------------------------------------------------------------

def crash_unit():
    finding = FindingRecord(
        kind="crash",
        platform="p4c",
        pass_name="StrengthReduction",
        description="negative slice",
        signature="negative-slice-index",
    )
    return TriageUnit(
        identifier="p4c:strength_reduction_negative_slice",
        platform="p4c",
        source=CRASHING_PROGRAM,
        finding=finding,
        enabled_bugs=("strength_reduction_negative_slice",),
    )


def raise_runtime_error(*args, **kwargs):
    raise RuntimeError("injected")


class TestStandaloneTriageUnit:
    def test_unit_from_crash_source(self):
        outcome = run_triage_unit(crash_unit())
        assert outcome.status == TRIAGE_REDUCED
        assert outcome.reduced_size <= outcome.original_size
        assert outcome.localized_pass == "StrengthReduction"
        assert outcome.counters["triage_errors"] == 0

    def test_a_reducer_that_raises_counts_a_triage_error(self, monkeypatch):
        monkeypatch.setattr(stages, "reduce_program", raise_runtime_error)
        outcome = run_triage_unit(crash_unit())
        assert outcome.status == TRIAGE_UNREPRODUCED
        assert outcome.localized_pass == "StrengthReduction"
        assert outcome.counters["triage_errors"] == 1

    def test_a_localization_that_raises_keeps_the_reduction(self, monkeypatch):
        monkeypatch.setattr(stages, "localize_finding", raise_runtime_error)
        outcome = run_triage_unit(crash_unit())
        assert outcome.status == TRIAGE_REDUCED
        assert outcome.reduced_size <= outcome.original_size
        assert outcome.localized_pass == "StrengthReduction"
        assert outcome.pass_pair is None
        assert outcome.counters["triage_errors"] == 1

    def test_unreproducible_unit_reports_unreproduced(self):
        finding = FindingRecord(
            kind="crash",
            platform="p4c",
            pass_name="StrengthReduction",
            description="",
            signature="no-such-signature",
        )
        unit = TriageUnit(
            identifier="p4c:ghost",
            platform="p4c",
            source=GATED_PROGRAM,
            finding=finding,
            enabled_bugs=(),
        )
        outcome = run_triage_unit(unit)
        assert outcome.status == "unreproduced"
        assert outcome.reduced_source == ""
        assert outcome.counters["triage_errors"] == 0

    def test_a_trigger_that_does_not_parse_counts_a_triage_error(self):
        finding = FindingRecord(
            kind="crash",
            platform="p4c",
            pass_name="StrengthReduction",
            description="",
            signature="negative-slice-index",
        )
        unit = TriageUnit(
            identifier="p4c:unparsable",
            platform="p4c",
            source="control ingress(",
            finding=finding,
        )
        outcome = run_triage_unit(unit)
        assert outcome.status == TRIAGE_UNREPRODUCED
        assert outcome.localized_pass == "StrengthReduction"
        assert outcome.counters["triage_errors"] == 1
