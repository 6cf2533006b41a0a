"""Figure 4: symbolic execution for black-box back ends.

Generate input/expected-output packet tests from the program's SMT
semantics, feed them to the (closed) Tofino target, and compare observed
outputs.  The benchmark measures the generate-and-run loop and asserts that
the correct back end matches the oracle while a seeded back-end defect is
caught purely through packet tests (no IR access).
"""

from repro.compiler import CompilerOptions
from repro.core.testgen import SymbolicTestGenerator
from repro.p4 import parse_program
from repro.targets import PacketTest, PtfRunner, TofinoTarget


PROGRAM = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; Hdr_t eth; }

control ingress(inout Headers hdr) {
    action set_b(bit<8> val) {
        hdr.h.b = val;
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { set_b(); NoAction(); }
        default_action = NoAction();
    }
    apply {
        t.apply();
        hdr.h.a[3:0] = 4w15;
        if (!(hdr.h.b == 8w0)) {
            hdr.eth.a = hdr.h.a;
        } else {
            hdr.eth.a = 8w99;
        }
    }
}
"""


def _generate_and_run(enabled_bugs=frozenset()):
    program = parse_program(PROGRAM)
    tests = SymbolicTestGenerator(program, max_tests=6).generate()
    target = TofinoTarget(CompilerOptions(enabled_bugs=set(enabled_bugs)))
    runner = PtfRunner(target.compile(program))
    results = []
    for generated in tests:
        packet = generated.build_packet(program)
        results.append(
            runner.run_test(
                PacketTest(
                    name=generated.name,
                    input_packet=packet,
                    expected=generated.expected,
                    entries=generated.entries,
                    ignore_paths=generated.ignore_paths,
                )
            )
        )
    return results


def test_figure4_symbolic_execution(benchmark):
    results = benchmark.pedantic(_generate_and_run, rounds=1, iterations=1)
    print("\nFigure 4: symbolic-execution packet tests against the Tofino simulator")
    print(f"  tests generated : {len(results)}")
    print(f"  correct target  : {sum(result.passed for result in results)} passed")
    assert results
    assert all(result.passed for result in results)

    # The same tests catch seeded back-end defects without IR access.
    for bug in ("tofino_slice_assignment_drop", "tofino_ternary_condition_flip"):
        buggy_results = _generate_and_run({bug})
        mismatches = [result for result in buggy_results if not result.passed]
        print(f"  seeded {bug}: {len(mismatches)} mismatching tests")
        assert mismatches, f"expected packet tests to expose {bug}"
