"""The packet test: one input/expected-output pair replayed on a target.

A :class:`PacketTest` describes one test case: the input packet (header
field values and validity), the table entries to install, and the expected
output packet.  The :class:`StfRunner` (BMv2's Simple Test Framework) feeds
the input through a compiled :class:`~repro.targets.execution.Executable`
and diffs the observed output against the expectation, which is exactly how
Gauntlet detects semantic bugs on targets (paper §6, figure 4).  Every back
end's runner replays the same test through the same comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.targets.state import PacketState, TableEntry


@dataclass
class PacketTest:
    """One input/expected-output packet pair plus control-plane state."""

    name: str
    input_packet: PacketState
    expected: Dict[str, object]
    entries: List[TableEntry] = field(default_factory=list)
    #: Paths whose value the oracle could not predict (undefined reads); the
    #: runner does not compare them.
    ignore_paths: List[str] = field(default_factory=list)


@dataclass
class PacketResult:
    """Outcome of one packet test."""

    test: PacketTest
    passed: bool
    observed: Dict[str, object]
    mismatches: Dict[str, Dict[str, object]] = field(default_factory=dict)
    error: Optional[str] = None


class StfRunner:
    """Run packet tests against a compiled executable."""

    def __init__(self, executable) -> None:
        self.executable = executable

    def run_test(self, test: PacketTest) -> PacketResult:
        try:
            output = self.executable.process(test.input_packet, test.entries)
        except Exception as exc:  # noqa: BLE001 - a target crash is a finding
            return PacketResult(test, passed=False, observed={}, error=str(exc))
        observed = output.observable()
        mismatches: Dict[str, Dict[str, object]] = {}
        for path, expected_value in test.expected.items():
            if path in test.ignore_paths:
                continue
            observed_value = observed.get(path)
            if observed_value != expected_value:
                mismatches[path] = {"expected": expected_value, "observed": observed_value}
        return PacketResult(test, passed=not mismatches, observed=observed, mismatches=mismatches)
