"""Symbolic-execution test-case generation (paper §6).

For black-box back ends such as the Tofino compiler, translation validation
is impossible -- there is no intermediate P4 to compare.  Gauntlet instead
reuses the symbolic interpreter to compute, for the *input* program, pairs
of input and expected-output packets (plus the table entries needed to steer
execution), and feeds them to the target's packet test framework.

Path selection follows the paper: one test per reachable combination of
branch decisions (capped), with the solver asked for non-zero header values
so that targets which zero-initialise undefined data cannot mask bugs.
Undefined values in the oracle are fixed to the target's convention (zero)
when computing the expected output.

Stateful programs (registers/counters) are tested with *sequences*: the
symbolic interpreter threads packet ``i``'s final state into packet
``i + 1`` (:meth:`SymbolicInterpreter.interpret_sequence`), one solver
covers the whole sequence, and the expected values include the final
``$state.*`` cells.  Table symbols are shared across the sequence because
the control plane is installed once, before the first packet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import smt
from repro.core.interpreter import BlockSemantics, InterpreterError, SymbolicInterpreter, TableInfo
from repro.metrics import MISSING, LruCache
from repro.p4 import ast
from repro.smt.solver import CheckResult, Model, Solver
from repro.targets.state import PacketState, SwitchState, TableEntry, packet_layout


#: Default packet count of a stateful test sequence.  Three packets is
#: enough to observe every seeded stateful defect (a lost read-modify-write
#: needs two state updates, a flush-time truncation needs a packet *after*
#: the write) while keeping the solver's per-program work bounded; stateless
#: programs are always collapsed to length 1 (:func:`cached_sequences`).
DEFAULT_SEQUENCE_LENGTH = 3


@dataclass
class GeneratedTest:
    """One input/expected-output packet pair for a packet test framework."""

    name: str
    input_values: Dict[str, int]
    input_validity: Dict[str, bool]
    entries: List[TableEntry]
    expected: Dict[str, object]
    #: Output paths the oracle could not pin down (not compared).
    ignore_paths: List[str] = field(default_factory=list)

    def build_packet(self, program: ast.Program, struct_name: str = "Headers") -> PacketState:
        """Materialise the input packet for the given program."""

        return self.input_packet(packet_layout(program, struct_name))

    def input_packet(self, layout: PacketState) -> PacketState:
        """The input packet, filled into a copy of the program's resolved
        :func:`~repro.targets.state.packet_layout`."""

        packet = layout.copy()
        for path, value in self.input_values.items():
            packet.write(path, value)
        for header, valid in self.input_validity.items():
            if header in packet.headers:
                packet.headers[header].valid = valid
        return packet


@dataclass
class TestSequence:
    """An ordered multi-packet test sharing one switch state.

    The packets must be replayed in order against a freshly power-cycled
    executable (``reset_state()``), installing ``packets[0].entries`` once
    up front -- the control plane does not change mid-sequence.  After the
    last packet, the live ``$state.*`` cells are compared against
    ``expected_state``.
    """

    name: str
    packets: List[GeneratedTest]
    #: Expected final register/counter cells, keyed ``$state.<bank>[<i>]``.
    expected_state: Dict[str, int] = field(default_factory=dict)

    @property
    def entries(self) -> List[TableEntry]:
        """The sequence-wide control-plane configuration."""

        return self.packets[0].entries if self.packets else []


def program_has_state(program: ast.Program) -> bool:
    """True when any control declares a register or counter bank."""

    return bool(SwitchState.for_program(program).banks)


class SymbolicTestGenerator:
    """Generate packet tests for a program using its symbolic semantics."""

    def __init__(
        self,
        program: ast.Program,
        max_tests: int = 8,
        prefer_nonzero: bool = True,
        undefined_value: int = 0,
        require_valid_headers: bool = True,
        sequence_length: int = 1,
    ) -> None:
        self.program = program
        self.max_tests = max_tests
        self.prefer_nonzero = prefer_nonzero
        self.undefined_value = undefined_value
        #: Input packets arrive with their headers parsed and valid; allowing
        #: the solver to pick invalid input headers would make every output
        #: field "invalid" and mask real divergences (§8, environment problem).
        self.require_valid_headers = require_valid_headers
        #: One BlockSemantics per packet of the sequence, state threaded
        #: between them.  Packet 0 starts from the zero power-on state, which
        #: for stateless programs is exactly the single-packet pipeline view.
        self.packets: List[BlockSemantics] = SymbolicInterpreter(
            program
        ).interpret_sequence(max(1, sequence_length))
        self.semantics: BlockSemantics = self.packets[0]

    # -- public API ------------------------------------------------------------

    def generate(self) -> List[GeneratedTest]:
        """Produce up to ``max_tests`` tests covering distinct program paths.

        All path probes share one incremental solver: the environment
        constraints (parser unroll guards, valid input headers) are asserted
        once, and each path constraint — plus the non-zero preferences — is
        passed as an assumption, so the CNF and the learned clauses of
        earlier probes carry over instead of being rebuilt per path.  The
        probe sequence is fixed, so the generated tests are a deterministic
        function of the program alone.
        """

        solver = self._base_solver()
        preferences = self._preferences()
        tests: List[GeneratedTest] = []
        for index, constraint in enumerate(self._path_constraints()):
            if len(tests) >= self.max_tests:
                break
            model = self._solve(solver, constraint, preferences)
            if model is None:
                continue
            tests.append(self._build_test(f"path_{index}", model))
        if not tests:
            # Fall back to a single unconstrained test.
            model = self._solve(solver, smt.BoolVal(True), preferences)
            if model is not None:
                tests.append(self._build_test("default", model))
        return tests

    def generate_sequences(self) -> List[TestSequence]:
        """Produce up to ``max_tests`` multi-packet sequences.

        Same probe machinery as :meth:`generate`, but each model yields one
        :class:`TestSequence` of ``sequence_length`` packets plus the
        expected final state, all evaluated under the one model that covers
        the whole threaded sequence.
        """

        solver = self._base_solver()
        preferences = self._preferences()
        sequences: List[TestSequence] = []
        for index, constraint in enumerate(self._path_constraints()):
            if len(sequences) >= self.max_tests:
                break
            model = self._solve(solver, constraint, preferences)
            if model is None:
                continue
            sequences.append(self._build_sequence(f"path_{index}", model))
        if not sequences:
            model = self._solve(solver, smt.BoolVal(True), preferences)
            if model is not None:
                sequences.append(self._build_sequence("default", model))
        return sequences

    # -- path selection ------------------------------------------------------------

    def _path_constraints(self):
        """Yield constraints steering execution down distinct paths."""

        yield smt.BoolVal(True)
        conditions = [
            condition
            for packet in self.packets
            for condition in packet.branch_conditions
        ][:6]
        # Toggle each branch condition individually first, then pairs.
        for condition in conditions:
            yield condition
            yield smt.Not(condition)
        for left, right in itertools.combinations(conditions, 2):
            yield smt.And(left, right)
            yield smt.And(smt.Not(left), smt.Not(right))
        # Also aim for table hits: key symbol equals the key expression is
        # already the hit condition encoded by the interpreter, so asking for
        # a specific action choice is enough to exercise each action.
        for table in self.semantics.tables:
            for action_index in range(len(table.actions)):
                yield smt.Eq(
                    smt.BitVecSym(table.action_symbol, 8),
                    smt.BitVecVal(action_index + 1, 8),
                )

    def _base_solver(self) -> Solver:
        """One solver holding the environment constraints of every probe."""

        solver = Solver()
        # Exclude inputs that drive the parser past the symbolic unroll
        # budget: on those paths the model under-approximates the parser
        # while the concrete target keeps iterating, and the resulting
        # expectation mismatch would be a false alarm, not a finding.
        for packet in self.packets:
            for overflow in packet.parser_overflows:
                solver.add(smt.Not(overflow))
            if self.require_valid_headers:
                for path, symbol in packet.inputs.items():
                    if path.endswith(".$valid"):
                        solver.add(symbol)
        return solver

    def _preferences(self) -> List[smt.Term]:
        if not self.prefer_nonzero:
            return []
        return [
            smt.Ne(symbol, smt.BitVecVal(0, symbol.width))
            for packet in self.packets
            for path, symbol in packet.inputs.items()
            if symbol.sort.is_bv()
        ]

    def _solve(
        self, solver: Solver, constraint: smt.Term, preferences: List[smt.Term]
    ) -> Optional[Model]:
        # The path constraint rides along as an assumption so the shared
        # solver never accumulates path-specific assertions.
        if preferences and solver.check(constraint, *preferences) == CheckResult.SAT:
            return solver.model()
        if solver.check(constraint) == CheckResult.SAT:
            return solver.model()
        return None

    # -- test construction ----------------------------------------------------------

    def _build_test(
        self, name: str, model: Model, semantics: Optional[BlockSemantics] = None
    ) -> GeneratedTest:
        semantics = semantics if semantics is not None else self.semantics
        assignment: Dict[str, object] = {}
        for symbol_name, value in model.items():
            assignment[symbol_name] = value

        input_values: Dict[str, int] = {}
        input_validity: Dict[str, bool] = {}
        for path, symbol in semantics.inputs.items():
            value = assignment.get(symbol.name, 0)
            if path.endswith(".$valid"):
                input_validity[path[: -len(".$valid")]] = bool(value)
            elif symbol.sort.is_bv():
                input_values[path] = int(value)

        entries = self._entries_from_model(assignment, semantics)
        expected, ignore_paths = self._expected_output(assignment, semantics)
        return GeneratedTest(
            name=name,
            input_values=input_values,
            input_validity=input_validity,
            entries=entries,
            expected=expected,
            ignore_paths=ignore_paths,
        )

    def _build_sequence(self, name: str, model: Model) -> TestSequence:
        packets = [
            self._build_test(f"{name}.pkt{index}", model, semantics)
            for index, semantics in enumerate(self.packets)
        ]
        return TestSequence(
            name=name, packets=packets, expected_state=self._expected_state(model)
        )

    def _expected_state(self, model: Model) -> Dict[str, int]:
        """Final register/counter cells after the last packet of the sequence."""

        assignment = {
            symbol_name: value
            for symbol_name, value in model.items()
            if not symbol_name.startswith("undef_")
        }
        return {
            path: int(
                smt.evaluate(term, assignment, default=self.undefined_value)
            )
            for path, term in self.packets[-1].state_outputs.items()
        }

    def _entries_from_model(
        self, assignment: Dict[str, object], semantics: BlockSemantics
    ) -> List[TableEntry]:
        entries: List[TableEntry] = []
        for table in semantics.tables:
            key = tuple(int(assignment.get(symbol, 0)) for symbol in table.key_symbols)
            action_index = int(assignment.get(table.action_symbol, 0))
            if not (1 <= action_index <= len(table.actions)):
                continue  # the model picked "no entry": the default action runs
            action_name = table.actions[action_index - 1]
            if action_name == "NoAction":
                args: Tuple[int, ...] = ()
            else:
                args = tuple(
                    int(assignment.get(symbol, 0))
                    for symbol, _width in table.action_args.get(action_name, [])
                )
            entries.append(TableEntry(table.table, key, action_name, args))
        return entries

    def _expected_output(
        self, assignment: Dict[str, object], semantics: BlockSemantics
    ) -> Tuple[Dict[str, object], List[str]]:
        expected: Dict[str, object] = {}
        ignore: List[str] = []
        # Fix every undefined-read symbol to the target's convention before
        # evaluating the output terms.  The SAT model may assign ``undef_*``
        # symbols arbitrary values (a path constraint can even mention
        # them), but no packet or table entry can steer what the target
        # reads from an invalid header, so expectations must be computed
        # with the convention value -- not with whatever the model picked.
        assignment = {
            name: value
            for name, value in assignment.items()
            if not name.startswith("undef_")
        }
        validity: Dict[str, bool] = {}
        for path, term in semantics.outputs.items():
            if path.endswith(".$valid"):
                value = smt.evaluate(term, assignment, default=self.undefined_value)
                validity[path[: -len(".$valid")]] = bool(value)
                expected[path] = bool(value)
        for path, term in semantics.outputs.items():
            if path.endswith(".$valid"):
                continue
            header = path.split(".", 1)[0]
            if header in validity and not validity[header]:
                expected[path] = None
                continue
            value = smt.evaluate(term, assignment, default=self.undefined_value)
            expected[path] = int(value) if not isinstance(value, bool) else value
        return expected, ignore


# ----------------------------------------------------------------------
# Process-wide test cache
# ----------------------------------------------------------------------

#: Symbolic packet tests are a function of the *input* program and the
#: test budget alone (the oracle never sees the backend), so they are
#: shared between platforms, across the per-defect detection matrix, and
#: across campaign work units scheduled onto the same worker process,
#: keyed by ``(emitted source, max_tests, sequence length)`` -- the budget
#: is part of the key because the cache outlives any single campaign.  The
#: sequence length is normalised to 1 for stateless programs, so a
#: campaign running with ``sequence_length=3`` still shares entries across
#: its (mostly stateless) corpus instead of tripling the solver work.
#: ``None`` records an oracle failure so it is not retried per platform.
_SEQGEN_CACHE = LruCache("testgen", 256)


def cached_sequences(
    program: ast.Program, source: str, max_tests: int, sequence_length: int = 1
) -> Optional[List[TestSequence]]:
    """Generate (or recall) multi-packet test sequences for ``source``.

    Stateless programs always get length-1 sequences -- without registers
    there is nothing a later packet could observe, so the extra packets
    would only multiply solver and replay cost.  Returns ``None`` when the
    symbolic oracle cannot handle the program (an oracle limitation, never
    a finding -- paper §5.2).
    """

    length = max(1, sequence_length)
    if length > 1 and not program_has_state(program):
        length = 1
    key = (source, max_tests, length)
    sequences = _SEQGEN_CACHE.get(key)
    if sequences is MISSING:
        try:
            sequences = SymbolicTestGenerator(
                program, max_tests=max_tests, sequence_length=length
            ).generate_sequences()
        except InterpreterError:
            sequences = None
        _SEQGEN_CACHE.put(key, sequences)
    return sequences


def clear_testgen_cache() -> None:
    """Drop the test cache (memory bound for long-lived services)."""

    _SEQGEN_CACHE.clear()
