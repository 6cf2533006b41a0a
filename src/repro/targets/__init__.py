"""P4 target back ends.

The back ends live behind one registry (:data:`BACKEND_REGISTRY`) and share
the concrete execution substrate; the paper's two evaluation platforms were
the first entries, and the registry has since grown (see ``README.md`` in
this package for the backend-author contract):

* :mod:`repro.targets.bmv2` -- an open back end modelled on the BMv2
  "simple switch": the lowered program is observable, and the STF-like test
  framework feeds packets and checks outputs.
* :mod:`repro.targets.tofino` -- a closed back end modelled on the Tofino
  compiler: intermediate programs are *not* exposed, so only packet-level
  testing (the PTF-like framework) can observe its behaviour.
* :mod:`repro.targets.ebpf` -- a closed eBPF/XDP-style back end with
  verifier-flavoured resource limits (instruction budget, bounded loops,
  stack cap); observed through a ``bpf_prog_test_run``-style harness.

Every target's ``link`` returns the same
:class:`~repro.targets.execution.Executable` (the shared concrete
interpreter over the target's :class:`TargetSemantics` defect flags, on a
:class:`repro.targets.state.PacketState`), and every runner replays the same
:class:`~repro.targets.stf.PacketTest` through the same comparison.  A back
end is therefore a target class plus a runner name.
"""

from typing import Dict, NamedTuple, Type

from repro.targets.state import HeaderInstance, PacketState, TableEntry
from repro.targets.execution import (
    ConcreteInterpreter,
    ExecutionError,
    Executable,
    TargetSemantics,
)
from repro.targets.bmv2 import Bmv2Target
from repro.targets.tofino import TofinoTarget
from repro.targets.ebpf import EbpfTarget, XdpRunner
from repro.targets.stf import PacketResult, PacketTest, StfRunner
from repro.targets.ptf import PtfRunner


class BackendSpec(NamedTuple):
    """Everything needed to compile for and packet-test one back end.

    The campaign engine ships work units to worker processes by *platform
    name* and resolves the classes there, so every entry must be importable
    and constructible from a bare :class:`~repro.compiler.CompilerOptions`
    (no sharing of compiler state across processes).
    """

    target_cls: Type
    runner_cls: Type


#: Platform name -> backend classes, in deterministic platform order.
#: ``p4c`` is absent on purpose: the open toolchain is validated by
#: translation validation, not packet tests.
BACKEND_REGISTRY: Dict[str, BackendSpec] = {
    "bmv2": BackendSpec(Bmv2Target, StfRunner),
    "tofino": BackendSpec(TofinoTarget, PtfRunner),
    "ebpf": BackendSpec(EbpfTarget, XdpRunner),
}


__all__ = [
    "BackendSpec",
    "BACKEND_REGISTRY",
    "HeaderInstance",
    "PacketState",
    "TableEntry",
    "ConcreteInterpreter",
    "ExecutionError",
    "Executable",
    "TargetSemantics",
    "Bmv2Target",
    "TofinoTarget",
    "EbpfTarget",
    "PacketTest",
    "PacketResult",
    "StfRunner",
    "PtfRunner",
    "XdpRunner",
]
