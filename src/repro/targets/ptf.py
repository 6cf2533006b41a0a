"""The Packet Test Framework (PTF) runner for the Tofino simulator.

The difference from :mod:`repro.targets.stf` is operational (PTF injects
packets into the Tofino simulator or hardware, STF into BMv2), not
conceptual, so the runner replays the same
:class:`~repro.targets.stf.PacketTest` through the same comparison; the
class only gives the campaign a per-target name.
"""

from __future__ import annotations

from repro.targets.stf import StfRunner


class PtfRunner(StfRunner):
    """Run packet tests against a Tofino executable (the software simulator)."""

    # Bound in the class body: the perfbench tracer wraps each runner's own run_test.
    run_test = StfRunner.run_test
