"""Regression tests for the PR 7 validation hot path.

Three properties the campaign engine must keep:

* the shared front/mid-end prefix is compiled once per program and reused
  by every backend unit (prefix memo),
* the reparse/interp snapshot caches actually *hit* on a multi-platform
  campaign (they were structurally unable to before backend units re-walked
  the shared prefix), and
* batched equivalence checking is a pure accelerator — forcing the
  sequential fallback yields an identical validation report, and
* per-program work runs once per program, not once per packet or per
  platform unit (the packet layout's typecheck, the feature scan).
"""

from repro import smt
from repro.compiler import (
    CompilerOptions,
    clear_prefix_cache,
    compile_front_midend,
    compile_prefix,
)
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine import stages
from repro.core.engine.stages import reset_worker_state, run_unit
from repro.core.engine.units import WorkUnit
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.reduce.oracles import packet_mismatch
from repro.core.validation import (
    TranslationValidator,
    ValidationOutcome,
    clear_validation_caches,
)
from repro.metrics import COUNTERS
from repro.p4 import emit_program, parse_program
from repro.targets import BACKEND_REGISTRY, state


def small_generator(seed):
    return GeneratorConfig(
        seed=seed, max_apply_statements=4, max_expression_depth=2, p_parser=0.2
    )


class TestPrefixMemo:
    def test_backend_units_share_one_prefix_compilation(self):
        reset_worker_state()
        program = RandomProgramGenerator(small_generator(3)).generate_indexed(0)
        source = emit_program(program)
        options = CompilerOptions(enabled_bugs=set())
        before = dict(COUNTERS)
        first = compile_prefix(program, source, options)
        second = compile_prefix(program, source, options)
        assert second is first
        assert COUNTERS["prefix_misses"] - before["prefix_misses"] == 1
        assert COUNTERS["prefix_hits"] - before["prefix_hits"] == 1

    def test_backend_bugs_do_not_split_the_key(self):
        # Backend-located defects never run in the front/mid end, so a
        # p4c unit and a tofino unit with a tofino bug share one prefix.
        reset_worker_state()
        program = RandomProgramGenerator(small_generator(4)).generate_indexed(0)
        source = emit_program(program)
        plain = compile_prefix(program, source, CompilerOptions(enabled_bugs=set()))
        tofino = compile_prefix(
            program,
            source,
            CompilerOptions(
                enabled_bugs={"tofino_slice_assignment_drop"}, target="tofino"
            ),
        )
        assert tofino is plain

    def test_frontend_bugs_do_split_the_key(self):
        reset_worker_state()
        program = RandomProgramGenerator(small_generator(5)).generate_indexed(0)
        source = emit_program(program)
        plain = compile_prefix(program, source, CompilerOptions(enabled_bugs=set()))
        bugged = compile_prefix(
            program, source, CompilerOptions(enabled_bugs={"constant_folding_no_mask"})
        )
        assert bugged is not plain


class TestCampaignCachesHit:
    def test_multi_platform_campaign_reuses_snapshots(self):
        # Regression for the zero-hit caches: before backend units
        # validated the shared prefix, reparse_hits and interp_hits were
        # structurally stuck at 0 — only p4c units touched the caches, and
        # every p4c snapshot source is distinct.
        reset_worker_state()
        clear_validation_caches()
        campaign = Campaign(
            CampaignConfig(
                programs=4,
                seed=11,
                enabled_bugs=(),
                platforms=("p4c", "bmv2", "tofino"),
                generator=small_generator(11),
            )
        )
        stats = campaign.run()
        assert stats.counters.get("reparse_hits", 0) > 0
        assert stats.counters.get("interp_hits", 0) > 0
        assert stats.counters.get("prefix_hits", 0) > 0
        # Clean chains settle without per-pair solves: the case split
        # proves the pairs the syntactic paths leave, before any SAT query.
        assert stats.counters.get("solver_split_equivalences", 0) > 0


class TestSequentialFallbackIsPureSlowdown:
    def _reports(self, source, bugs, monkeypatch):
        def run(batched):
            clear_validation_caches()
            smt.clear_equivalence_cache()
            result = compile_front_midend(
                source, CompilerOptions(enabled_bugs=set(bugs))
            )
            with monkeypatch.context() as patch:
                if not batched:
                    patch.setattr(
                        smt, "all_equivalent", lambda pairs, **kwargs: False
                    )
                return TranslationValidator().validate_compilation(result)

        return run(batched=True), run(batched=False)

    def test_clean_program_reports_match(self, monkeypatch):
        source = (
            "header Hdr_t { bit<8> a; bit<8> b; }\n"
            "struct Headers { Hdr_t h; }\n"
            "control ingress(inout Headers hdr) {\n"
            "    apply { hdr.h.a = hdr.h.b * 8w4; hdr.h.b = 8w1 - 8w2; }\n}\n"
        )
        batched, sequential = self._reports(source, (), monkeypatch)
        assert batched.outcome == ValidationOutcome.EQUIVALENT
        assert sequential.outcome == ValidationOutcome.EQUIVALENT

    def test_buggy_program_divergences_match(self, monkeypatch):
        source = (
            "header Hdr_t { bit<8> a; bit<8> b; }\n"
            "struct Headers { Hdr_t h; }\n"
            "control ingress(inout Headers hdr) {\n"
            "    apply { hdr.h.a = hdr.h.b * 8w4; }\n}\n"
        )
        batched, sequential = self._reports(
            source, ("strength_reduction_shift_semantics",), monkeypatch
        )
        assert batched.outcome == ValidationOutcome.SEMANTIC_BUG
        assert sequential.outcome == ValidationOutcome.SEMANTIC_BUG
        assert len(batched.divergences) == len(sequential.divergences)
        for left, right in zip(batched.divergences, sequential.divergences):
            assert left.pass_name == right.pass_name
            assert left.before_pass == right.before_pass
            assert left.block == right.block
            assert left.output_path == right.output_path
            assert left.witness == right.witness


#: Stateful, so every test is a three-packet sequence.
STATEFUL_SOURCE = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    register<bit<8>>(2) r8;
    apply {
        r8.write(32w0, (hdr.h.b + 8w5));
        r8.read(hdr.h.a, 32w0);
    }
}
"""


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestPerProgramWorkRunsOnce:
    def test_packet_replay_typechecks_the_layout_once_per_call(self, monkeypatch):
        reset_worker_state()
        program = parse_program(STATEFUL_SOURCE)
        source = emit_program(program)
        spec = BACKEND_REGISTRY["bmv2"]
        options = CompilerOptions(enabled_bugs=set(), target="bmv2")
        executable = spec.target_cls(options).link(compile_prefix(program, source, options))
        # Warm the test-generation cache: the counted call only replays.
        assert packet_mismatch(program, source, executable, spec, 4, 3) is None
        typechecks = _counting(monkeypatch, state, "check_program")
        before = COUNTERS["packets_replayed"]
        assert packet_mismatch(program, source, executable, spec, 4, 3) is None
        assert COUNTERS["packets_replayed"] - before >= 3
        assert len(typechecks) == 1

    def test_platform_units_of_one_program_share_one_feature_scan(self, monkeypatch):
        reset_worker_state()
        scans = _counting(monkeypatch, stages, "program_features")
        outcomes = [
            run_unit(WorkUnit(0, platform, small_generator(6)))
            for platform in ("p4c", "bmv2", "tofino")
        ]
        assert len(scans) == 1
        features = [
            {cell for cell in outcome.coverage if cell.startswith("feature:")}
            for outcome in outcomes
        ]
        assert features[0] and features[0] == features[1] == features[2]
