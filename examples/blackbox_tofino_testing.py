#!/usr/bin/env python3
"""Black-box testing of a closed back end with symbolic execution.

The Tofino-style back end does not expose intermediate programs, so
translation validation cannot be used.  This example reproduces the paper's
§6 workflow (figure 4): the symbolic interpreter computes input/expected
output packet pairs (plus the table entries needed to steer execution), and
the PTF-like packet test framework compares them against the simulator.

Usage::

    python examples/blackbox_tofino_testing.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.compiler import CompilerOptions
from repro.core.testgen import SymbolicTestGenerator
from repro.p4 import parse_program
from repro.targets import PacketTest, PtfRunner, TofinoTarget


PROGRAM = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}

struct Headers {
    Hdr_t h;
    Hdr_t eth;
}

control ingress(inout Headers hdr) {
    action set_b(bit<8> val) {
        hdr.h.b = val;
    }
    table forward {
        key = { hdr.h.a : exact; }
        actions = { set_b(); NoAction(); }
        default_action = NoAction();
    }
    apply {
        forward.apply();
        hdr.h.a[3:0] = 4w15;
        if (!(hdr.h.b == 8w0)) {
            hdr.eth.a = hdr.h.a;
        } else {
            hdr.eth.a = 8w99;
        }
    }
}
"""


def run(description: str, enabled_bugs: set) -> None:
    print(f"=== {description} ===")
    program = parse_program(PROGRAM)

    generator = SymbolicTestGenerator(program, max_tests=6)
    tests = generator.generate()
    print(f"generated {len(tests)} path-covering packet tests")

    target = TofinoTarget(CompilerOptions(enabled_bugs=enabled_bugs))
    executable = target.compile(program)
    runner = PtfRunner(executable)

    failures = 0
    for generated in tests:
        packet = generated.build_packet(program)
        result = runner.run_test(
            PacketTest(
                name=generated.name,
                input_packet=packet,
                expected=generated.expected,
                entries=generated.entries,
                ignore_paths=generated.ignore_paths,
            )
        )
        status = "ok" if result.passed else f"MISMATCH {result.mismatches}"
        print(f"  {generated.name}: {status}")
        failures += 0 if result.passed else 1
    verdict = "no semantic bug observed" if failures == 0 else "semantic bug detected"
    print(f"verdict: {verdict}\n")


def main() -> None:
    run("correct Tofino back end", set())
    run(
        "Tofino back end that drops narrow slice writes",
        {"tofino_slice_assignment_drop"},
    )
    run(
        "Tofino back end that inverts negated gateway conditions",
        {"tofino_ternary_condition_flip"},
    )


if __name__ == "__main__":
    main()
