"""The packet-test harness, on every registered back end.

Every back end's runner replays the same :class:`PacketTest` through the
same comparison, so one set of tests covers them all; a back end added to
:data:`BACKEND_REGISTRY` is covered without a line here.  Target-specific
defect tests stay with their targets.
"""

import pytest

from repro.p4 import parse_program
from repro.targets import BACKEND_REGISTRY, ExecutionError, PacketTest, TableEntry
from repro.targets.state import build_packet_state


SOURCE = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}

struct Headers {
    Hdr_t h;
}

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
        hdr.h.b = hdr.h.a + 8w1;
        t.apply();
    }
}
"""


@pytest.fixture(params=sorted(BACKEND_REGISTRY))
def harness(request):
    """``(runner, program)`` for one registered back end, defects off."""

    spec = BACKEND_REGISTRY[request.param]
    program = parse_program(SOURCE)
    target = spec.target_cls()
    return spec.runner_cls(target.compile(program)), program


def packet_test(program, expected, **fields):
    packet = build_packet_state(program, "Headers", {"h.a": 3})
    return PacketTest("t", packet, expected, **fields)


def test_matching_output_passes(harness):
    runner, program = harness
    result = runner.run_test(packet_test(program, {"h.a": 3, "h.b": 4, "h.$valid": True}))
    assert result.passed, result.mismatches
    assert result.observed["h.b"] == 4 and result.error is None


def test_mismatch_names_path_expected_and_observed(harness):
    runner, program = harness
    result = runner.run_test(packet_test(program, {"h.a": 3, "h.b": 9}))
    assert not result.passed
    assert result.mismatches == {"h.b": {"expected": 9, "observed": 4}}


def test_ignored_paths_are_not_compared(harness):
    runner, program = harness
    assert runner.run_test(packet_test(program, {"h.b": 9}, ignore_paths=["h.b"])).passed


def test_table_entries_reach_the_target(harness):
    runner, program = harness
    entries = [TableEntry("t", (3,), "set_b", (42,))]
    assert runner.run_test(packet_test(program, {"h.b": 42}, entries=entries)).passed
    assert not runner.run_test(packet_test(program, {"h.b": 42})).passed


def test_target_exception_is_a_failed_test(harness, monkeypatch):
    runner, program = harness

    def crash(packet, entries=()):
        raise ExecutionError("target fault")

    monkeypatch.setattr(runner.executable, "process", crash)
    result = runner.run_test(packet_test(program, {"h.b": 4}))
    assert not result.passed
    assert result.error == "target fault"
    assert result.observed == {} and result.mismatches == {}
