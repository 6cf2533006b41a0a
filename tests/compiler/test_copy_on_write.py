"""The copy-on-write pass contract.

A front/mid-end pass never writes to a node it received: it copies only the
nodes it rewrites (and their ancestors), shares every other node with its
input, and returns its input object itself when it changed nothing.  The
pass manager reads "same object" as "unchanged" and does not re-emit it.
Every changed snapshot's source reparses to the snapshot's program, which is
what lets the source-keyed memos (prefix, type check, interpretation, test
generation) stand in for the program.

The corpus mixes generated programs from the default, stack-heavy and
register-heavy generator configs (indices picked so that every front/mid-end
defect changes at least one compilation) with one hand-written program that
reaches the defects no small generated corpus does (a nested function call,
``push_front`` and ``pop_front``).
"""

import hashlib

import pytest

from repro.compiler import CompilerOptions, P4Compiler
from repro.compiler import pass_manager
from repro.compiler.bugs import BUG_CATALOG, LOCATION_BACKEND
from repro.compiler.passes import PassContext
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.metrics import COUNTERS
from repro.p4 import emit_program, parse_program
from repro.p4.lexer import LexerError
from repro.p4.parser import ParserError


#: (generator config, program indices) of the generated part of the corpus.
GENERATED = (
    (GeneratorConfig(seed=11, p_local_arg_idiom=1.0), (3, 7, 13)),
    (GeneratorConfig(seed=12, p_header_stack=0.9), (3, 15)),
    (GeneratorConfig(seed=13, p_register=0.9), (11, 12)),
)

HAND_WRITTEN = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}
struct Headers {
    Hdr_t h;
    Hdr_t hs[3];
}
bit<8> bump(inout bit<8> x) {
    x = x + 8w1;
    return x;
}
control ingress(inout Headers hdr) {
    apply {
        hdr.h.a = bump(hdr.h.b) + 8w1;
        hdr.hs.push_front(1);
        hdr.hs.pop_front(1);
    }
}
"""

#: No defect, then every front/mid-end defect alone.
DEFECT_SETS = ((),) + tuple(
    (bug_id,)
    for bug_id, bug in sorted(BUG_CATALOG.items())
    if bug.location != LOCATION_BACKEND
)

#: sha256 over every compilation of the corpus under every defect set:
#: each snapshot's ``(pass_name, changed, source)``, the crash and error
#: text, and the coverage cells.  Recorded before the passes became
#: copy-on-write; the pipeline's output must not move.
PIPELINE_DIGEST = "47d7d9a68443a0446ff241d280a7c84f0174862c55da560dfa6ba381d8947faf"


def corpus():
    programs = []
    for config, indices in GENERATED:
        generator = RandomProgramGenerator(config)
        programs.extend(generator.generate_indexed(index) for index in indices)
    programs.append(parse_program(HAND_WRITTEN))
    return programs


@pytest.fixture(scope="module")
def compilations():
    """``(input program, its source before compiling, result)`` for every
    defect set and corpus program.  Each program object is compiled as is
    under every defect set, so a pass that wrote to its input would show in
    every later compilation of it."""

    programs = [(program, emit_program(program)) for program in corpus()]
    out = []
    for bugs in DEFECT_SETS:
        options = CompilerOptions(enabled_bugs=frozenset(bugs))
        for program, source in programs:
            out.append((program, source, P4Compiler(options).compile(program)))
    return out


def test_pipeline_output_is_pinned(compilations):
    digest = hashlib.sha256()
    for _, _, result in compilations:
        for snapshot in result.snapshots:
            digest.update(
                repr((snapshot.pass_name, snapshot.changed, snapshot.source)).encode()
            )
        crash = result.crash
        digest.update(
            repr((crash.pass_name, crash.signature, str(crash)) if crash else None).encode()
        )
        digest.update(repr(str(result.error) if result.error else None).encode())
        digest.update(repr(sorted(result.coverage.to_dict().items())).encode())
    assert digest.hexdigest() == PIPELINE_DIGEST


def test_no_pass_writes_to_a_node_it_received(compilations):
    """Every snapshot and every input still emits to its recorded source
    once all compilations are done."""

    for program, source, result in compilations:
        assert emit_program(program) == source
        for snapshot in result.snapshots:
            assert emit_program(snapshot.program) == snapshot.source, snapshot.pass_name


@pytest.mark.parametrize("index", range(len(corpus())))
def test_a_pass_that_changes_nothing_returns_its_input(index):
    current = corpus()[index]
    compiler = P4Compiler()
    context = PassContext(options=compiler.options)
    unchanged = 0
    for compiler_pass in compiler.passes():
        transformed = compiler_pass.run(current, context)
        if emit_program(transformed) == emit_program(current):
            assert transformed is current, compiler_pass.name
            unchanged += 1
        current = transformed
    assert unchanged > 0


#: Programs a lowering pass clones but finds nothing to lower in.
NOTHING_TO_LOWER = {
    # A stack addressed by constant indices only.
    "HeaderStackFlattening": """
header Hdr_t { bit<8> a; }
struct Headers { Hdr_t h; Hdr_t hs[3]; }
control ingress(inout Headers hdr) {
    apply { hdr.hs[1].a = hdr.h.a; }
}
""",
    # A plain register write, no counter.
    "StatefulLowering": """
header Hdr_t { bit<8> a; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    register<bit<8>>(2) r8;
    apply { r8.write(32w0, hdr.h.a); }
}
""",
}


@pytest.mark.parametrize("pass_name", sorted(NOTHING_TO_LOWER))
def test_a_lowering_pass_with_nothing_to_lower_returns_its_input(pass_name):
    program = parse_program(NOTHING_TO_LOWER[pass_name])
    compiler = P4Compiler()
    (lowering,) = [p for p in compiler.passes() if p.name == pass_name]
    assert lowering.run(program, PassContext(options=compiler.options)) is program


@pytest.mark.parametrize("source_given", (False, True))
def test_emitter_runs_once_per_distinct_snapshot(monkeypatch, source_given):
    """One emit per pass that changed the program, plus one for the input
    unless the caller passes its source in; no pass returns a copy of a
    program it did not change, the lowering passes included."""

    calls = []

    def counting_emit(program, memo=None):
        calls.append(program)
        return emit_program(program, memo)

    monkeypatch.setattr(pass_manager, "emit_program", counting_emit)
    for program in corpus():
        source = emit_program(program) if source_given else None
        calls.clear()
        before = COUNTERS["compiler_snapshot_emits"]
        result = P4Compiler().compile(program, source)
        assert result.succeeded
        snapshots = result.snapshots
        copies = [
            after.pass_name
            for before_pass, after in zip(snapshots, snapshots[1:])
            if after.program is not before_pass.program and not after.changed
        ]
        assert copies == []
        assert snapshots[0].source == emit_program(program)
        assert len(calls) == len(result.changed_snapshots()) - source_given
        assert len(calls) < len(snapshots)
        assert COUNTERS["compiler_snapshot_emits"] - before == len(calls)


def test_every_changed_snapshot_reparses_to_its_program(compilations):
    """Under no defect and every front/mid-end defect, a changed snapshot
    whose source parses at all parses back to the snapshot's program: the
    emitter never maps two different programs to one source.  The snapshots
    that do not parse are seeded invalid transformations."""

    checked = unparseable = 0
    for _, _, result in compilations:
        for snapshot in result.changed_snapshots():
            try:
                reparsed = parse_program(snapshot.source)
            except (LexerError, ParserError):
                unparseable += 1
                continue
            assert reparsed == snapshot.program, snapshot.pass_name
            checked += 1
    assert (checked, unparseable) == (1031, 14)
