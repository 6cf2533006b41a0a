"""Per-program pipeline coverage instrumentation.

The paper's generator is blind (§4.2 leaves coverage feedback as future
work); this module measures what a corpus reaches: every compilation
produces a :class:`CoverageMap` describing *which parts of the compiler
the program exercised*, cheap enough to compute on every campaign unit:

* ``pass:<Name>`` — the pass changed the program (set by the
  :class:`~repro.compiler.pass_manager.PassManager` when a snapshot
  differs from its predecessor),
* ``rule:<Pass>.<rule>`` — one specific rewrite rule fired, counted at
  the rewrite site (passes record through
  :meth:`~repro.compiler.passes.PassContext.record_rule`),
* ``shape:<op>`` — term-shape histogram of the final snapshot's symbolic
  semantics (computed in :mod:`repro.core.validation`; hash-consing makes
  the DAG walk near-free because structural equality is pointer
  equality),
* ``feature:<name>`` — syntactic features of the generated program.  The
  names deliberately coincide with
  :attr:`~repro.compiler.bugs.SeededBug.trigger_features` so a campaign
  can tell which programs light the cells defect X needs.

A coverage map is a plain ``cell -> count`` dictionary: serialisation is
lossless (:meth:`to_dict`/:meth:`from_dict` round-trip exactly) and
merging is a key-wise sum — commutative and associative — so coverage
rides the unit-outcome wire format and aggregates under any executor or
shard order, exactly like the solver/cache counters.

Everything here is a pure function of the program (and the enabled
front/mid-end defects), never of process state: two workers — or a
worker and a store resume — report byte-identical coverage for the same
unit.  That invariant is what keeps merged campaign coverage identical
across ``jobs=1``, worker fleets and store resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from repro.p4 import ast
from repro.p4.types import BitType, HeaderStackType

#: Cell-name prefixes.  Kept short and stable: cells cross the JSONL wire
#: on every unit outcome and land in ``CampaignStatistics.counters`` under
#: an additional ``cov_`` prefix.
PASS_PREFIX = "pass:"
RULE_PREFIX = "rule:"
SHAPE_PREFIX = "shape:"
FEATURE_PREFIX = "feature:"


def pass_cell(pass_name: str) -> str:
    return f"{PASS_PREFIX}{pass_name}"


def rule_cell(pass_name: str, rule: str) -> str:
    return f"{RULE_PREFIX}{pass_name}.{rule}"


def shape_cell(op: str) -> str:
    return f"{SHAPE_PREFIX}{op}"


def feature_cell(name: str) -> str:
    return f"{FEATURE_PREFIX}{name}"


@dataclass
class CoverageMap:
    """A multiset of coverage cells (``cell name -> hit count``)."""

    cells: Dict[str, int] = field(default_factory=dict)

    # -- recording -----------------------------------------------------------

    def record(self, cell: str, count: int = 1) -> None:
        if count:
            self.cells[cell] = self.cells.get(cell, 0) + count

    def record_pass(self, pass_name: str) -> None:
        """The pass-fired bit: the pass changed the program this run."""

        self.record(pass_cell(pass_name))

    def record_rule(self, pass_name: str, rule: str, count: int = 1) -> None:
        self.record(rule_cell(pass_name, rule), count)

    # -- queries -------------------------------------------------------------

    def passes_fired(self) -> Dict[str, int]:
        return self._by_prefix(PASS_PREFIX)

    def rules_fired(self) -> Dict[str, int]:
        return self._by_prefix(RULE_PREFIX)

    def features(self) -> Dict[str, int]:
        return self._by_prefix(FEATURE_PREFIX)

    def _by_prefix(self, prefix: str) -> Dict[str, int]:
        return {
            cell[len(prefix):]: count
            for cell, count in self.cells.items()
            if cell.startswith(prefix)
        }

    def __bool__(self) -> bool:
        return bool(self.cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageMap):
            return NotImplemented
        return self.cells == other.cells

    # -- merging (commutative, associative) ----------------------------------

    def merge(self, other: "CoverageMap") -> "CoverageMap":
        """A new map with key-wise summed counts (neither input mutated)."""

        merged = dict(self.cells)
        for cell, count in other.cells.items():
            merged[cell] = merged.get(cell, 0) + count
        return CoverageMap(merged)

    def update(self, cells: Mapping[str, int]) -> None:
        """Fold a plain cell dict in place (the wire-side merge)."""

        for cell, count in cells.items():
            self.record(cell, count)

    # -- wire format ---------------------------------------------------------

    def to_dict(self) -> Dict[str, int]:
        return dict(self.cells)

    @classmethod
    def from_dict(cls, payload: Mapping[str, int]) -> "CoverageMap":
        return cls({str(cell): int(count) for cell, count in payload.items()})


# ----------------------------------------------------------------------
# Syntactic feature cells
# ----------------------------------------------------------------------

_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ARITHMETIC_OPS = ("+", "-", "*", "/", "%")
_VALIDITY_METHODS = ("setValid", "setInvalid", "isValid")

#: Table count at which the ``many_tables`` cell lights (the Tofino stage
#: budget the ``tofino_table_limit_crash`` trigger needs to exceed).
_MANY_TABLES_THRESHOLD = 3
#: Field width beyond which a header field counts as ``wide_field``.
_WIDE_FIELD_BITS = 32
#: Register cell width beyond which a bank counts as ``wide_register``
#: (the spill-narrowing defect only bites past its 8-bit intermediary).
_WIDE_REGISTER_BITS = 8


def program_features(program: ast.Program) -> CoverageMap:
    """Feature cells of one program, aligned with defect trigger features.

    One AST walk; every cell name matches a
    :attr:`~repro.compiler.bugs.SeededBug.trigger_features` entry, so
    ``feature:<name>`` coverage directly tells which defects' trigger
    shapes a knob vector is producing.
    """

    coverage = CoverageMap()

    def hit(name: str, count: int = 1) -> None:
        coverage.record(feature_cell(name), count)

    functions = program.functions()
    if functions:
        hit("function", len(functions))
        for function in functions:
            if len(function.params) > 1:
                hit("multiple_args")
            if any(param.direction == "inout" for param in function.params):
                hit("inout_param")

    tables = 0
    counts_per_bank: Dict[str, int] = {}
    reads: set = set()
    writes: set = set()
    for node in ast.walk(program):
        if isinstance(node, ast.BinaryOp):
            if node.op in ("<<", ">>"):
                hit("shift")
            elif node.op in _COMPARISON_OPS:
                hit("comparison")
            elif node.op == "++":
                hit("concat")
            elif node.op == "*":
                hit("multiplication")
                hit("arithmetic")
            elif node.op in _ARITHMETIC_OPS:
                hit("arithmetic")
        elif isinstance(node, ast.UnaryOp):
            hit("negation")
        elif isinstance(node, ast.Constant):
            hit("constants")
            if node.width is None:
                hit("widthless_literal")
        elif isinstance(node, ast.Cast):
            hit("cast")
        elif isinstance(node, ast.Slice):
            hit("slice")
        elif isinstance(node, ast.IfStatement):
            hit("branch")
            if node.else_branch is not None:
                hit("else_branch")
            if any(
                isinstance(sub, ast.IfStatement)
                for branch in (node.then_branch, node.else_branch)
                if branch is not None
                for sub in ast.walk(branch)
            ):
                hit("nested_if")
        elif isinstance(node, ast.ExitStatement):
            hit("exit")
        elif isinstance(node, ast.ReturnStatement):
            hit("return")
        elif isinstance(node, ast.TableDeclaration):
            tables += 1
            hit("table")
            if len(node.keys) > 1:
                hit("multiple_keys")
        elif isinstance(node, ast.ActionDeclaration):
            if node.params:
                hit("action_param")
        elif isinstance(node, ast.RegisterDeclaration):
            hit("register")
            if node.width > _WIDE_REGISTER_BITS:
                hit("wide_register")
        elif isinstance(node, ast.CounterDeclaration):
            hit("counter")
        elif isinstance(node, ast.MethodCallExpression):
            target = node.target
            if isinstance(target, ast.Member):
                if target.member in _VALIDITY_METHODS:
                    hit("header_validity")
                elif target.member in ("push_front", "pop_front"):
                    hit(target.member)
                    hit("header_stack")
                elif isinstance(target.expr, ast.PathExpression):
                    bank = target.expr.name
                    if target.member == "count":
                        counts_per_bank[bank] = counts_per_bank.get(bank, 0) + 1
                    elif target.member == "read":
                        reads.add(bank)
                    elif target.member == "write":
                        writes.add(bank)
            if any(
                isinstance(sub, ast.MethodCallExpression)
                for arg in node.args
                for sub in ast.walk(arg)
            ):
                hit("nested_call")
        elif isinstance(node, ast.StructDeclaration):
            if any(
                isinstance(field_type, HeaderStackType)
                for _name, field_type in node.fields
            ):
                hit("header_stack")
        elif isinstance(node, ast.HeaderDeclaration):
            for _name, field_type in node.fields:
                if isinstance(field_type, BitType):
                    if field_type.width > _WIDE_FIELD_BITS:
                        hit("wide_field")
                    if field_type.width == 16:
                        hit("sixteen_bit_field")

    if tables >= _MANY_TABLES_THRESHOLD:
        hit("many_tables")
    if any(count >= 2 for count in counts_per_bank.values()):
        hit("repeated_count")
    if writes & reads:
        hit("write_then_read")

    parsers = program.parsers() if hasattr(program, "parsers") else []
    for parser in parsers:
        hit("parser")
        if _has_state_cycle(parser):
            hit("parser_cycle")
    return coverage


def _has_state_cycle(parser: ast.ParserDeclaration) -> bool:
    """Whether the parser's state-transition graph contains a cycle."""

    edges: Dict[str, set] = {}
    for state in parser.states:
        targets = set()
        if state.next_state:
            targets.add(state.next_state)
        targets.update(case.next_state for case in state.cases if case.next_state)
        edges[state.name] = targets

    visiting: set = set()
    done: set = set()

    def visit(name: str) -> bool:
        if name in done or name not in edges:
            return False
        if name in visiting:
            return True
        visiting.add(name)
        if any(visit(target) for target in sorted(edges[name])):
            return True
        visiting.discard(name)
        done.add(name)
        return False

    return any(visit(name) for name in edges)


def merge_coverage_dicts(payloads: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Key-wise sum of plain cell dicts (the parent-side aggregate)."""

    merged = CoverageMap()
    for payload in payloads:
        merged.update(payload)
    return merged.to_dict()
