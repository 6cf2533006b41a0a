"""Regression tests for the PR 7 validation hot path.

Four properties the campaign engine must keep:

* the shared front/mid-end prefix is compiled once per program and reused
  by every backend unit (prefix memo),
* the reparse/interp snapshot caches actually *hit* on a multi-platform
  campaign (they were structurally unable to before backend units re-walked
  the shared prefix), and
* the first divergence validation reports (pass, pair, output and
  witness) is pinned over a seeded corpus, and validation runs no batched
  equivalence probe, and
* per-program work runs once per program, not once per packet or per
  platform unit (the packet layout's typecheck, the feature scan), and
  each distinct source is typechecked once outside the compiler.
"""

import hashlib

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
from repro.p4 import emit_program, parse_program, typecheck
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
            CompilerOptions(enabled_bugs={"tofino_slice_assignment_drop"}),
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


class TestResetWorkerState:
    COLD_WORK = (
        "prefix_misses",
        "testgen_misses",
        "lexer_misses",
        "statements_misses",
        "reparse_misses",
        "typecheck_misses",
        "typecheck_runs",
        "interp_misses",
    )

    def test_every_run_after_a_reset_starts_cold(self):
        config = CampaignConfig(programs=10, seed=1, platforms=("p4c", "bmv2", "tofino"))
        work = []
        for _ in range(2):
            reset_worker_state()
            counters = Campaign(config).run().counters
            work.append([counters.get(key, 0) for key in self.COLD_WORK])
        assert work[0] == work[1]
        assert all(work[0])


class TestCampaignCachesHit:
    def test_multi_platform_campaign_reuses_snapshots(self):
        # Regression for the zero-hit caches: before backend units
        # validated the shared prefix, reparse_hits and interp_hits were
        # structurally stuck at 0 — only p4c units touched the caches, and
        # every p4c snapshot source is distinct.
        reset_worker_state()
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


#: Generator configuration overrides of the first-divergence corpus.
DIVERGENCE_CONFIGS = {
    "default": {},
    "stack": {"p_header_stack": 0.9},
    "register": {"p_register": 0.9},
}

#: ``(defect, config, program index)``: one program that every front/mid-end
#: semantic defect miscompiles, plus five more.
SEEDED_DIVERGENCES = (
    ("action_param_slice_drop", "default", 1),
    ("constant_folding_no_mask", "default", 0),
    ("copy_prop_across_invalid", "default", 2),
    ("dead_code_removes_validity_call", "stack", 0),
    ("exit_ignores_copy_out", "default", 7),
    ("inline_alias_copy_out", "default", 4),
    ("predication_nested_else_lost", "default", 9),
    ("side_effect_argument_order", "default", 4),
    ("simplify_control_flow_empty_if", "default", 0),
    ("stack_flatten_next_index_off_by_one", "stack", 13),
    ("stack_flatten_pop_validity_drop", "stack", 13),
    ("stateful_read_write_reorder", "register", 3),
    ("stateful_rmw_lost_update", "register", 0),
    ("stateful_spill_width_narrow", "register", 0),
    ("strength_reduction_shift_semantics", "default", 7),
    ("constant_folding_no_mask", "register", 0),
    ("copy_prop_across_invalid", "stack", 5),
    ("dead_code_removes_validity_call", "register", 11),
    ("simplify_control_flow_empty_if", "stack", 0),
    ("strength_reduction_shift_semantics", "stack", 7),
)

#: sha256 over each program's first divergence: pass, ``before_pass``,
#: block, output path and witness.  Recorded while validation still sent
#: every snapshot pair to a batched SAT probe before walking it.
FIRST_DIVERGENCES_DIGEST = "a9de440c59e108d13241a1059fa924182b3afcf619918b6a981b3b8468298d65"


class TestFirstDivergenceIsPinned:
    def test_seeded_programs_diverge_where_and_how_they_did(self):
        digest = hashlib.sha256()
        for bug, config, index in SEEDED_DIVERGENCES:
            generator = RandomProgramGenerator(
                GeneratorConfig(seed=7, **DIVERGENCE_CONFIGS[config])
            )
            program = generator.generate_indexed(index)
            clear_validation_caches()
            smt.clear_equivalence_cache()
            result = compile_front_midend(
                emit_program(program), CompilerOptions(enabled_bugs={bug})
            )
            report = TranslationValidator().validate_compilation(result)
            assert report.outcome == ValidationOutcome.SEMANTIC_BUG, (bug, config, index)
            (divergence,) = report.divergences
            digest.update(
                repr(
                    (
                        divergence.pass_name,
                        divergence.before_pass,
                        divergence.block,
                        divergence.output_path,
                        sorted(divergence.witness.items()),
                    )
                ).encode()
            )
        assert digest.hexdigest() == FIRST_DIVERGENCES_DIGEST


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
    def test_packet_replay_typechecks_at_most_once_per_call(self, monkeypatch):
        """The layout's types are looked up once per replay, never once per
        packet, and the lookup is memoised by source: at most one check."""

        reset_worker_state()
        program = parse_program(STATEFUL_SOURCE)
        source = emit_program(program)
        spec = BACKEND_REGISTRY["bmv2"]
        options = CompilerOptions(enabled_bugs=set())
        executable = spec.target_cls(options).link(compile_prefix(program, source, options))
        # Warm the test-generation cache: the counted call only replays.
        assert packet_mismatch(program, source, executable, spec, 4, 3) is None
        lookups = _counting(monkeypatch, state, "checked_types")
        typechecks = _counting(monkeypatch, typecheck, "check_program")
        before = COUNTERS["packets_replayed"]
        assert packet_mismatch(program, source, executable, spec, 4, 3) is None
        assert COUNTERS["packets_replayed"] - before >= 3
        assert len(lookups) == 1
        assert len(typechecks) <= 1

    def test_campaign_typechecks_at_most_eight_times_per_program(self):
        """The front end's two checking passes, plus one check per distinct
        source the oracles interpret: validation, test generation, the
        back-end executables and the packet layout share the memo."""

        reset_worker_state()
        programs = 20
        stats = Campaign(
            CampaignConfig(programs=programs, seed=1, platforms=("p4c", "bmv2", "tofino"))
        ).run()
        counters = stats.counters
        assert counters["typecheck_runs"] <= 8 * programs
        assert counters["typecheck_misses"] == counters["interp_misses"]

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
