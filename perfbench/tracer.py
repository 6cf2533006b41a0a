"""Per-layer tracing from outside the program.

The tracer replaces each traced function with a timing wrapper for the
duration of a ``with Tracer(...)`` block and restores everything on exit.
For a plain function it rebinds every module-global name (in the
``repro`` package) that refers to that function object, because most
modules import the functions by name (``from repro.p4 import
parse_program``); for a method it replaces the class attribute.

Spans stay in memory as ``(layer, parent, start, end)``.  A layer's self
time is each span's duration minus the durations of its direct child
spans; its inclusive time counts only the outermost span of the layer, so
recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(counter name, predicate on the return value)``: counted per call.
ResultCount = Tuple[str, Callable[[object], bool]]


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` plus ``qualname`` (``Class.method``)."""

    layer: str
    module: str
    qualname: str
    count: Optional[ResultCount] = None


def _is_unknown(result) -> bool:
    return getattr(result, "value", None) == "unknown"


#: The system's layers, named after its modules.  Order is irrelevant.
LAYER_TARGETS: Tuple[Target, ...] = (
    Target("generator", "repro.core.generator", "RandomProgramGenerator.generate_indexed"),
    Target("p4.parse", "repro.p4.parser", "parse_program"),
    Target("p4.emit", "repro.p4.emitter", "emit_program"),
    Target("p4.typecheck", "repro.p4.typecheck", "check_program"),
    Target("compiler.prefix", "repro.compiler.compiler", "compile_prefix"),
    Target("validation", "repro.core.validation", "TranslationValidator.validate_compilation"),
    Target("interpreter", "repro.core.interpreter", "SymbolicInterpreter.interpret"),
    Target("interpreter.seq", "repro.core.interpreter", "SymbolicInterpreter.interpret_sequence"),
    Target("smt.equivalence", "repro.smt.solver", "all_equivalent"),
    Target("smt.equivalence", "repro.smt.solver", "find_divergence"),
    # A conflict-budget UNKNOWN is read as "equivalent" by the oracle: an
    # abstention the campaign does not report, so it is counted here.
    Target("smt.check", "repro.smt.solver", "Solver.check", ("smt.budget_exhausted", _is_unknown)),
    Target("smt.check", "repro.smt.solver", "Solver.decide", ("smt.budget_exhausted", _is_unknown)),
    # ``None`` means the symbolic oracle could not produce tests and the
    # unit is reported clean: the other silent abstention.
    Target("testgen", "repro.core.testgen", "cached_sequences", ("testgen.abstained", lambda r: r is None)),
    Target("targets.link", "repro.targets.bmv2", "Bmv2Target.link"),
    Target("targets.link", "repro.targets.tofino", "TofinoTarget.link"),
    Target("targets.link", "repro.targets.ebpf", "EbpfTarget.link"),
    Target("targets.replay", "repro.targets.stf", "StfRunner.run_test"),
    Target("targets.replay", "repro.targets.ptf", "PtfRunner.run_test"),
    Target("targets.replay", "repro.targets.ebpf", "XdpRunner.run_test"),
    Target("reduce", "repro.core.reduce.reducer", "reduce_program"),
    Target("localize", "repro.core.reduce.localize", "localize_finding"),
    Target("coverage", "repro.compiler.coverage", "program_features"),
    Target("coverage", "repro.core.validation", "term_shape_histogram"),
    Target("engine.unit", "repro.core.engine.stages", "run_unit"),
    Target("engine.triage", "repro.core.engine.stages", "run_triage_unit"),
    Target("engine.merge", "repro.core.engine.merge", "OutcomeMerger.add"),
    Target("engine.merge", "repro.core.engine.merge", "OutcomeMerger.finalize"),
    Target("engine.merge", "repro.core.engine.merge", "apply_triage"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in LAYER_TARGETS))
COUNTS: Tuple[str, ...] = tuple(
    dict.fromkeys(target.count[0] for target in LAYER_TARGETS if target.count)
)

_PACKAGE = "repro"


def _package_modules(package: str):
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    """Wrap the targets while active; collect spans and result counts."""

    def __init__(
        self,
        targets: Sequence[Target] = LAYER_TARGETS,
        clock: Callable[[], float] = time.perf_counter,
        package: str = _PACKAGE,
    ) -> None:
        self.targets = tuple(targets)
        self.clock = clock
        self.package = package
        self.spans: List[Tuple[str, int, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: ``id(wrapper) -> (wrapper, original)`` for plain functions.
        self._wrapped: Dict[int, Tuple[Callable, object]] = {}

    # -- wrapping ------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, count: Optional[ResultCount]) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((layer, parent, 0.0, 0.0))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, parent, start, end)
            if count is not None and count[1](result):
                self.counts[count[0]] += 1
            return result

        return timed

    def install(self) -> None:
        wrappers: Dict[int, Tuple[object, Callable]] = {}
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"{target.qualname} is not a plain method")
                self._patch(owner, attr, self._wrap(target.layer, original, target.count))
            else:
                original = getattr(module, attr)
                wrappers[id(original)] = (original, self._wrap(target.layer, original, target.count))
        for module in _package_modules(self.package):
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, entry[1])
        for original, wrapper in wrappers.values():
            self._wrapped[id(wrapper)] = (wrapper, original)

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        # A module imported while tracing bound the wrapper by name.
        for module in _package_modules(self.package):
            for name, value in list(vars(module).items()):
                entry = self._wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self._wrapped.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ---------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``layer -> {"self_s", "incl_s", "calls"}`` over the recorded spans."""

        return summarize(self.spans)


def summarize(spans: Sequence[Tuple[str, int, float, float]]) -> Dict[str, Dict[str, float]]:
    """Self time, inclusive time and call count per layer.

    ``spans`` are ``(layer, parent index or -1, start, end)`` in call order,
    so a parent always precedes its children.
    """

    child_time = [0.0] * len(spans)
    outermost = [True] * len(spans)
    for index, (layer, parent, start, end) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][1]
        outermost[index] = ancestor < 0
    result: Dict[str, Dict[str, float]] = {}
    for index, (layer, _, start, end) in enumerate(spans):
        entry = result.setdefault(layer, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - child_time[index]
        entry["calls"] += 1
        if outermost[index]:
            entry["incl_s"] += end - start
    return result
