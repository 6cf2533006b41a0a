"""The eBPF/XDP-style back end (closed back end, verifier-constrained).

This target models a kernel-extension compiler in the style of p4c-ebpf /
p4c-xdp: the shared front/mid end (P4C) runs first, then a proprietary
lowering maps the program onto an XDP program — parsers become bounded
byte-stream loops over the packet buffer, match-action tables become BPF
hash-map lookups chained through tail calls, and header storage lives on
the 512-byte BPF stack.  Like the Tofino back end it is a *black box*:
:meth:`EbpfTarget.compile` only returns an opaque executable or raises, so
Gauntlet can only observe it through packet-level testing (paper §6) via
the :class:`XdpRunner` test framework (a ``bpf_prog_test_run``-style
harness).

What makes the target structurally different from a switch pipeline is the
in-kernel *verifier*: a static analysis that rejects programs exceeding
fixed resource budgets.  The lowering therefore enforces verifier-flavored
limits, and a program over budget is a **graceful rejection**
(:class:`~repro.compiler.errors.CompilerError`), never a finding:

* :data:`EBPF_MAX_INSNS` — an instruction-count budget on the lowered
  program (``BPF_MAXINSNS``-style),
* bounded loops — a parser whose state graph contains a cycle would lower
  to an unbounded packet loop; the verifier rejects it instead of
  unrolling 256 deep the way the switch targets do,
* no ``exit`` inside table actions — actions lower to tail-called
  sub-programs, and a program-wide exit cannot cross a tail-call boundary,
* :data:`EBPF_STACK_LIMIT_BYTES` — parsed header storage must fit the
  BPF stack frame, which caps programs with wide headers.

Seeded defects (see :mod:`repro.compiler.bugs`):

* ``ebpf_verifier_loop_crash`` — the loop-bound analysis aborts on cyclic
  parser graphs instead of reporting a clean bounded-loop rejection,
* ``ebpf_tail_call_limit_crash`` — the tail-call budget check uses the
  wrong constant and aborts on table counts the target actually supports,
* ``ebpf_map_lookup_miss_action`` — a map-lookup miss falls through into
  the first action instead of running the declared default,
* ``ebpf_narrowing_cast_drop`` — narrowing casts keep the high bits of
  the source register (the masking instruction is dropped),
* ``ebpf_byte_order_swap`` — 16-bit header-field loads miss their
  network-to-host byte swap,
* ``ebpf_register_write_drops_high_byte`` — the end-of-packet flush that
  persists register cells into their array map writes one byte too few,
  so written cells lose their high byte between packets (same-packet
  reads still see the full scratch value: only a multi-packet sequence
  can observe the loss).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.compiler import CompilerOptions, P4Compiler
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.compiler.pass_manager import CompilationResult
from repro.p4 import ast
from repro.p4.types import BitType, HeaderStackType, HeaderType, StructType
from repro.p4.typecheck import checked_types
from repro.targets.execution import Executable, TargetSemantics
from repro.targets.stf import StfRunner


#: Instruction budget of the lowered program (``BPF_MAXINSNS``-flavoured;
#: the estimate below counts IR nodes, not real bytecode, so the budget is
#: on the same scale).
EBPF_MAX_INSNS = 4096

#: BPF stack frame size; parsed header storage must fit it.
EBPF_STACK_LIMIT_BYTES = 512

#: Tail-call chain budget: each applied table becomes one tail call.
EBPF_TAIL_CALL_LIMIT = 32

#: The wrong budget the ``ebpf_tail_call_limit_crash`` defect checks
#: against (a stale constant from an earlier kernel).
_BUGGY_TAIL_CALL_LIMIT = 8


class EbpfTarget:
    """Compile P4 programs to an eBPF/XDP-style kernel extension."""

    name = "ebpf"

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions()

    def compile(self, program) -> Executable:
        """Compile for XDP.  Only the executable (or an error) is visible."""

        return self.link(P4Compiler(self.options).compile(program))

    def link(self, result: CompilationResult) -> Executable:
        """Lower an already-compiled (shared, read-only) front/mid-end result."""

        if result.crashed:
            raise result.crash
        if result.rejected:
            raise result.error
        lowered = result.final_program
        self._verifier_checks(lowered, result.final_source)
        semantics = TargetSemantics(
            miss_runs_first_action=self.options.bug_enabled(
                "ebpf_map_lookup_miss_action"
            ),
            narrowing_cast_high_bits=self.options.bug_enabled(
                "ebpf_narrowing_cast_drop"
            ),
            swap_16bit_field_reads=self.options.bug_enabled("ebpf_byte_order_swap"),
            register_write_drops_high_byte=self.options.bug_enabled(
                "ebpf_register_write_drops_high_byte"
            ),
        )
        return Executable(lowered, semantics, result.final_source)

    # -- verifier-flavored lowering checks (not observable from outside) ------

    def _verifier_checks(self, program: ast.Program, source: str) -> None:
        self._check_parser_loops(program)
        self._check_tail_calls(program)
        self._check_exit_in_actions(program)
        self._check_stack_usage(program, source)
        self._check_instruction_budget(program)

    def _check_parser_loops(self, program: ast.Program) -> None:
        """Bounded-loop rejection: cyclic parser graphs cannot be unrolled.

        The switch targets unroll parsers up to 256 steps at run time; an
        XDP parser is a packet-buffer loop the verifier must prove bounded,
        and this subset carries no loop-bound annotations — so any state
        cycle (including the generator's ``stack.next`` extract loops) is
        rejected.  The seeded ``ebpf_verifier_loop_crash`` defect aborts in
        the analysis instead of reaching the clean rejection.
        """

        for parser in program.parsers():
            if not _parser_has_cycle(parser):
                continue
            if self.options.bug_enabled("ebpf_verifier_loop_crash"):
                raise CompilerCrash(
                    f"parser {parser.name!r}: back-edge bound analysis "
                    "recursed past the verifier state limit",
                    pass_name="EbpfVerifier",
                    signature="ebpf-verifier-loop-bound",
                )
            raise CompilerError(
                f"parser {parser.name!r}: unbounded loop (the verifier "
                "rejects cyclic parse graphs without a loop bound)"
            )

    def _check_tail_calls(self, program: ast.Program) -> None:
        """Each applied table is one tail call; the chain budget is fixed."""

        for control in program.controls():
            tables = [
                local for local in control.locals if isinstance(local, ast.TableDeclaration)
            ]
            if self.options.bug_enabled("ebpf_tail_call_limit_crash") and len(
                tables
            ) > _BUGGY_TAIL_CALL_LIMIT:
                raise CompilerCrash(
                    f"program-array setup failed: {len(tables)} table "
                    f"programs exceed the tail-call budget",
                    pass_name="EbpfTailCallLowering",
                    signature="ebpf-tail-call-limit",
                )
            if len(tables) > EBPF_TAIL_CALL_LIMIT:
                raise CompilerError(
                    f"control {control.name!r}: {len(tables)} tables exceed "
                    f"the tail-call chain limit of {EBPF_TAIL_CALL_LIMIT}"
                )

    def _check_exit_in_actions(self, program: ast.Program) -> None:
        """Actions lower to tail-called sub-programs; ``exit`` cannot cross
        a tail-call boundary, so programs using it are rejected."""

        for control in program.controls():
            for local in control.locals:
                if not isinstance(local, ast.ActionDeclaration):
                    continue
                if any(
                    isinstance(node, ast.ExitStatement)
                    for node in ast.walk_statements(local.body)
                ):
                    raise CompilerError(
                        f"action {local.name!r}: exit is not supported inside "
                        "tail-called actions on this target"
                    )

    def _check_stack_usage(self, program: ast.Program, source: str) -> None:
        """Parsed headers live on the BPF stack; the frame is 512 bytes.

        ``source`` is the emitted source of ``program``: the resolved types
        are memoised by it, shared with the executable's interpreter.
        """

        total_bits = 0
        types = checked_types(program, source)
        # The same struct type is typically bound to both the parser and
        # the control, so storage is deduplicated per struct *type* — two
        # distinct structs each contribute their own fields, even when
        # field names collide.
        seen_structs: Set[str] = set()
        for declaration in list(program.controls()) + list(program.parsers()):
            for parameter in declaration.params:
                param_type = types.resolve(parameter.param_type)
                if not isinstance(param_type, StructType):
                    continue
                if param_type.name in seen_structs:
                    continue
                seen_structs.add(param_type.name)
                for _field_name, field_type in param_type.fields:
                    resolved = types.resolve(field_type)
                    if isinstance(resolved, HeaderType):
                        total_bits += _header_bits(resolved)
                    elif isinstance(resolved, HeaderStackType):
                        element = types.resolve(resolved.element)
                        total_bits += _header_bits(element) * resolved.size
                    elif isinstance(resolved, BitType):
                        total_bits += resolved.width
        if total_bits > EBPF_STACK_LIMIT_BYTES * 8:
            raise CompilerError(
                f"parsed header storage needs {(total_bits + 7) // 8} bytes, "
                f"over the {EBPF_STACK_LIMIT_BYTES}-byte BPF stack frame"
            )

    def _check_instruction_budget(self, program: ast.Program) -> None:
        """Reject programs whose lowered size exceeds the insn budget."""

        estimate = _instruction_estimate(program)
        if estimate > EBPF_MAX_INSNS:
            raise CompilerError(
                f"lowered program needs ~{estimate} instructions, over the "
                f"{EBPF_MAX_INSNS}-instruction budget"
            )


def _header_bits(header: HeaderType) -> int:
    return sum(field_type.width for _name, field_type in header.fields)


def _instruction_estimate(program: ast.Program) -> int:
    """A deterministic instruction-count estimate of the lowered program.

    Every statement and expression node costs one instruction; table
    applies cost a map lookup plus a tail call.  The estimate only has to
    be monotone in program size and stable across runs — it gates the
    budget rejection, nothing else.
    """

    count = 0
    for node in ast.walk(program):
        if isinstance(node, (ast.Statement, ast.Expression)):
            count += 1
        if isinstance(node, ast.TableDeclaration):
            count += 4  # key load, map lookup, branch, tail call
    return count


def _parser_has_cycle(parser: ast.ParserDeclaration) -> bool:
    edges: Dict[str, List[str]] = {}
    for state in parser.states:
        targets = [case.next_state for case in state.cases]
        if state.next_state is not None:
            targets.append(state.next_state)
        edges[state.name] = [t for t in targets if t not in ("accept", "reject")]

    visiting: Set[str] = set()
    visited: Set[str] = set()

    def dfs(name: str) -> bool:
        if name in visiting:
            return True
        if name in visited or name not in edges:
            return False
        visiting.add(name)
        for target in edges[name]:
            if dfs(target):
                return True
        visiting.discard(name)
        visited.add(name)
        return False

    return dfs("start")


# ----------------------------------------------------------------------
# The XDP test framework (a bpf_prog_test_run-style harness)
# ----------------------------------------------------------------------


class XdpRunner(StfRunner):
    """Run packet tests against a compiled eBPF executable."""

    # Bound in the class body: the perfbench tracer wraps each runner's own run_test.
    run_test = StfRunner.run_test
