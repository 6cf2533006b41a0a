"""Catalog of seeded compiler defects.

The real Gauntlet found 78 historical bugs in p4c and the Tofino compiler.
Those code bases (and their bug history) are not available to this offline
reproduction, so the compiler instead carries an explicit catalog of seeded
defects -- one per root-cause class the paper describes -- that can be
switched on individually.  Each entry records:

* where the defect lives (front end / mid end / back end -- Table 3),
* how it manifests (crash vs. semantic -- Table 2),
* which paper example it is modelled on (Figure 5a-5f and §7.2), and
* the language features a program must use to trigger it, which the random
  program generator uses to bias its output.

The defects themselves are implemented inside the corresponding compiler
passes (see :mod:`repro.compiler.frontend`, :mod:`repro.compiler.midend`
and :mod:`repro.targets`); this module is only the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


#: Bug manifestation kinds (paper §2.1).
KIND_CRASH = "crash"
KIND_SEMANTIC = "semantic"

#: Bug locations (paper Table 3).
LOCATION_FRONTEND = "front_end"
LOCATION_MIDEND = "mid_end"
LOCATION_BACKEND = "back_end"

#: Platforms.  ``p4c``/``bmv2``/``tofino`` are the paper's Table 2
#: platforms; ``ebpf`` is the kernel-extension back end added after the
#: registry generalised (see ``src/repro/targets/README.md``).
PLATFORM_P4C = "p4c"
PLATFORM_BMV2 = "bmv2"
PLATFORM_TOFINO = "tofino"
PLATFORM_EBPF = "ebpf"


@dataclass(frozen=True)
class SeededBug:
    """A single switchable compiler defect."""

    bug_id: str
    description: str
    kind: str
    location: str
    platform: str
    pass_name: str
    paper_reference: str
    #: Language features a program needs for the bug to be reachable.
    trigger_features: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (KIND_CRASH, KIND_SEMANTIC):
            raise ValueError(f"invalid bug kind {self.kind!r}")
        if self.location not in (LOCATION_FRONTEND, LOCATION_MIDEND, LOCATION_BACKEND):
            raise ValueError(f"invalid bug location {self.location!r}")


def _catalog(entries: List[SeededBug]) -> Dict[str, SeededBug]:
    catalog: Dict[str, SeededBug] = {}
    for entry in entries:
        if entry.bug_id in catalog:
            raise ValueError(f"duplicate bug id {entry.bug_id!r}")
        catalog[entry.bug_id] = entry
    return catalog


BUG_CATALOG: Dict[str, SeededBug] = _catalog(
    [
        # ------------------------------------------------------------------
        # P4C front-end defects
        # ------------------------------------------------------------------
        SeededBug(
            bug_id="def_use_return_clears_scope",
            description=(
                "SimplifyDefUse drops writes to inout parameters when the "
                "function body contains a return statement, clearing the "
                "caller's definitions and crashing a later pass"
            ),
            kind=KIND_CRASH,
            location=LOCATION_FRONTEND,
            platform=PLATFORM_P4C,
            pass_name="SimplifyDefUse",
            paper_reference="Figure 5a",
            trigger_features=("function", "inout_param", "return"),
        ),
        SeededBug(
            bug_id="typecheck_shift_width_crash",
            description=(
                "The type checker crashes when inferring the width of a "
                "shift whose left operand is a width-less literal and whose "
                "shift amount is not compile-time known"
            ),
            kind=KIND_CRASH,
            location=LOCATION_FRONTEND,
            platform=PLATFORM_P4C,
            pass_name="TypeChecking",
            paper_reference="Figure 5b",
            trigger_features=("shift", "widthless_literal"),
        ),
        SeededBug(
            bug_id="strength_reduction_negative_slice",
            description=(
                "StrengthReduction rewrites a shift into a slice without a "
                "safety check, producing a negative slice index that makes "
                "the type checker reject a legal program"
            ),
            kind=KIND_CRASH,
            location=LOCATION_FRONTEND,
            platform=PLATFORM_P4C,
            pass_name="StrengthReduction",
            paper_reference="Figure 5c",
            trigger_features=("shift", "comparison"),
        ),
        SeededBug(
            bug_id="inline_missing_function",
            description=(
                "InlineFunctions fails to inline calls nested inside binary "
                "expressions; later passes assume all calls are gone and "
                "crash on the leftover call node"
            ),
            kind=KIND_CRASH,
            location=LOCATION_FRONTEND,
            platform=PLATFORM_P4C,
            pass_name="InlineFunctions",
            paper_reference="§7.2 snowball effects",
            trigger_features=("function", "nested_call"),
        ),
        SeededBug(
            bug_id="side_effect_argument_order",
            description=(
                "Copy-in of call arguments is performed right-to-left "
                "instead of left-to-right, so earlier arguments observe "
                "side effects of later ones"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_FRONTEND,
            platform=PLATFORM_P4C,
            pass_name="InlineFunctions",
            paper_reference="§5.2 copy-in/copy-out",
            trigger_features=("function", "multiple_args"),
        ),
        SeededBug(
            bug_id="inline_alias_copy_out",
            description=(
                "Function inlining substitutes argument l-values textually "
                "instead of introducing copy-in/copy-out temporaries, so "
                "aliased inout arguments observe partial updates"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_FRONTEND,
            platform=PLATFORM_P4C,
            pass_name="InlineFunctions",
            paper_reference="§7.2 handling side effects",
            trigger_features=("function", "inout_param"),
        ),
        SeededBug(
            bug_id="exit_ignores_copy_out",
            description=(
                "RemoveActionParameters moves assignments after an exit "
                "statement, assuming exit skips copy-out of inout/out "
                "action parameters"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_FRONTEND,
            platform=PLATFORM_P4C,
            pass_name="RemoveActionParameters",
            paper_reference="Figure 5f",
            trigger_features=("action_param", "exit"),
        ),
        SeededBug(
            bug_id="action_param_slice_drop",
            description=(
                "RemoveActionParameters deletes an assignment to a slice of "
                "a variable that is also passed (as a different slice) as "
                "an inout argument, assuming the whole variable is overwritten"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_FRONTEND,
            platform=PLATFORM_P4C,
            pass_name="RemoveActionParameters",
            paper_reference="Figure 5d",
            trigger_features=("action_param", "slice"),
        ),
        SeededBug(
            bug_id="parser_loop_unroll_crash",
            description=(
                "The parser-graph analysis crashes with a stack overflow "
                "when the parser state graph contains a cycle"
            ),
            kind=KIND_CRASH,
            location=LOCATION_FRONTEND,
            platform=PLATFORM_P4C,
            pass_name="ParserGraphs",
            paper_reference="§7.1 derivative bugs",
            trigger_features=("parser", "parser_cycle"),
        ),
        # ------------------------------------------------------------------
        # P4C mid-end defects
        # ------------------------------------------------------------------
        SeededBug(
            bug_id="constant_folding_no_mask",
            description=(
                "ConstantFolding computes additions without reducing the "
                "result modulo the bit width, so folded constants disagree "
                "with run-time wrap-around arithmetic"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="ConstantFolding",
            paper_reference="§7.2 (miscompiled arithmetic)",
            trigger_features=("arithmetic", "constants"),
        ),
        SeededBug(
            bug_id="predication_nested_else_lost",
            description=(
                "The Predication pass drops assignments from the else branch "
                "when if statements are nested"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="Predication",
            paper_reference="§7.2 consequences of compiler changes",
            trigger_features=("nested_if", "else_branch"),
        ),
        SeededBug(
            bug_id="copy_prop_across_invalid",
            description=(
                "LocalCopyPropagation propagates the value of a header field "
                "across a setInvalid()/setValid() pair, reading a field of an "
                "invalid header"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="LocalCopyPropagation",
            paper_reference="Figure 5e",
            trigger_features=("header_validity",),
        ),
        SeededBug(
            bug_id="dead_code_removes_validity_call",
            description=(
                "DeadCodeElimination treats setValid()/setInvalid() calls as "
                "side-effect free and removes them from branches it considers "
                "uninteresting"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="DeadCodeElimination",
            paper_reference="§7.2 unstable code",
            trigger_features=("header_validity", "branch"),
        ),
        SeededBug(
            bug_id="strength_reduction_shift_semantics",
            description=(
                "StrengthReduction rewrites multiplication by a power of two "
                "into a shift by the wrong amount (off by one)"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="StrengthReduction",
            paper_reference="§7.2 (miscompiled arithmetic)",
            trigger_features=("multiplication",),
        ),
        SeededBug(
            bug_id="stack_flatten_next_index_off_by_one",
            description=(
                "HeaderStackFlattening lowers push_front with an off-by-one "
                "element copy-out around nextIndex: the loop stops one slot "
                "below the top, so the last stack element keeps stale "
                "contents instead of receiving its shifted value"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="HeaderStackFlattening",
            paper_reference="§5-§7 (header stacks; Wong et al. §5, stack lowering)",
            trigger_features=("header_stack", "push_front"),
        ),
        SeededBug(
            bug_id="stack_flatten_pop_validity_drop",
            description=(
                "HeaderStackFlattening lowers pop_front by moving element "
                "field values but drops the validity-bit move, so shifted "
                "elements keep their destination slot's stale validity"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="HeaderStackFlattening",
            paper_reference="§5-§7 (header stacks; Wong et al. §5, stack lowering)",
            trigger_features=("header_stack", "pop_front"),
        ),
        SeededBug(
            bug_id="stateful_rmw_lost_update",
            description=(
                "StatefulLowering caches the read-modify-write scratch "
                "temporary per counter bank, so every count after the first "
                "in a block reuses the first call's stale read and loses "
                "one increment per extra count"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="StatefulLowering",
            paper_reference="§6 generalization (stateful externs)",
            trigger_features=("counter", "repeated_count"),
        ),
        SeededBug(
            bug_id="stateful_read_write_reorder",
            description=(
                "StatefulLowering's load scheduling hoists a register read "
                "above an immediately preceding write to the same bank, so "
                "a same-cell read-after-write observes the pre-write value"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="StatefulLowering",
            paper_reference="§6 generalization (stateful externs)",
            trigger_features=("register", "write_then_read"),
        ),
        SeededBug(
            bug_id="stateful_spill_width_narrow",
            description=(
                "StatefulLowering spills written register values through an "
                "8-bit intermediary, so writes to banks wider than 8 bits "
                "lose their high bits -- observable only when the state is "
                "read back, possibly packets later"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="StatefulLowering",
            paper_reference="§6 generalization (stateful externs)",
            trigger_features=("register", "wide_register"),
        ),
        SeededBug(
            bug_id="simplify_control_flow_empty_if",
            description=(
                "SimplifyControlFlow collapses an if statement whose then "
                "branch is empty by dropping the else branch as well"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="SimplifyControlFlow",
            paper_reference="§7.2 snowball effects",
            trigger_features=("branch", "else_branch"),
        ),
        SeededBug(
            bug_id="midend_emit_missing_parens",
            description=(
                "The Predication pass names its condition temporary with an "
                "illegal identifier (``pred cond0``), so the program emitted "
                "after the pass no longer parses (an invalid transformation)"
            ),
            kind=KIND_CRASH,
            location=LOCATION_MIDEND,
            platform=PLATFORM_P4C,
            pass_name="Predication",
            paper_reference="§7.2 invalid transformations",
            trigger_features=("nested_if",),
        ),
        # ------------------------------------------------------------------
        # BMv2 back-end defects
        # ------------------------------------------------------------------
        SeededBug(
            bug_id="bmv2_wide_field_truncation",
            description=(
                "The BMv2 back end truncates fields wider than 32 bits when "
                "building its JSON-like table representation"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_BACKEND,
            platform=PLATFORM_BMV2,
            pass_name="Bmv2Lowering",
            paper_reference="§7.1 (BMv2 back-end bugs)",
            trigger_features=("wide_field",),
        ),
        SeededBug(
            bug_id="bmv2_table_key_order_crash",
            description=(
                "The BMv2 back end crashes when a table has more keys than "
                "actions due to an incorrect internal invariant"
            ),
            kind=KIND_CRASH,
            location=LOCATION_BACKEND,
            platform=PLATFORM_BMV2,
            pass_name="Bmv2Lowering",
            paper_reference="§7.1 (BMv2 back-end bugs)",
            trigger_features=("table", "multiple_keys"),
        ),
        # ------------------------------------------------------------------
        # Tofino back-end defects (black box: only packet tests can see them)
        # ------------------------------------------------------------------
        SeededBug(
            bug_id="tofino_slice_assignment_drop",
            description=(
                "The Tofino back end drops assignments to bit slices narrower "
                "than a byte during PHV allocation"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_BACKEND,
            platform=PLATFORM_TOFINO,
            pass_name="TofinoPhvAllocation",
            paper_reference="§7.1 (Tofino semantic bugs)",
            trigger_features=("slice",),
        ),
        SeededBug(
            bug_id="tofino_ternary_condition_flip",
            description=(
                "The Tofino back end inverts the polarity of negated "
                "conditions when lowering if statements to gateway tables"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_BACKEND,
            platform=PLATFORM_TOFINO,
            pass_name="TofinoGatewayLowering",
            paper_reference="§7.1 (Tofino semantic bugs)",
            trigger_features=("negation", "branch"),
        ),
        SeededBug(
            bug_id="tofino_table_limit_crash",
            description=(
                "The Tofino back end aborts with an internal assertion when a "
                "control applies more tables than fit into one stage instead "
                "of reporting a resource error"
            ),
            kind=KIND_CRASH,
            location=LOCATION_BACKEND,
            platform=PLATFORM_TOFINO,
            pass_name="TofinoTablePlacement",
            paper_reference="§7.1 (Tofino crash bugs)",
            trigger_features=("many_tables",),
        ),
        SeededBug(
            bug_id="tofino_exit_in_action_crash",
            description=(
                "The Tofino back end crashes on exit statements inside "
                "actions that tables reference"
            ),
            kind=KIND_CRASH,
            location=LOCATION_BACKEND,
            platform=PLATFORM_TOFINO,
            pass_name="TofinoActionLowering",
            paper_reference="§7.1 (Tofino crash bugs)",
            trigger_features=("exit", "table"),
        ),
        SeededBug(
            bug_id="tofino_concat_width_crash",
            description=(
                "The Tofino back end mis-computes the container width of "
                "concatenation expressions and fails an internal width check"
            ),
            kind=KIND_CRASH,
            location=LOCATION_BACKEND,
            platform=PLATFORM_TOFINO,
            pass_name="TofinoPhvAllocation",
            paper_reference="§7.1 (Tofino crash bugs)",
            trigger_features=("concat",),
        ),
        # ------------------------------------------------------------------
        # eBPF/XDP back-end defects (black box; the verifier-constrained
        # kernel-extension target of Wang et al. / p4c-xdp lineage)
        # ------------------------------------------------------------------
        SeededBug(
            bug_id="ebpf_verifier_loop_crash",
            description=(
                "The eBPF verifier's loop-bound analysis aborts on cyclic "
                "parser graphs instead of reporting a clean bounded-loop "
                "rejection"
            ),
            kind=KIND_CRASH,
            location=LOCATION_BACKEND,
            platform=PLATFORM_EBPF,
            pass_name="EbpfVerifier",
            paper_reference="§6 generalization (kernel-extension targets)",
            trigger_features=("parser", "parser_cycle"),
        ),
        SeededBug(
            bug_id="ebpf_tail_call_limit_crash",
            description=(
                "The eBPF tail-call budget check uses a stale constant and "
                "aborts on table counts the target actually supports"
            ),
            kind=KIND_CRASH,
            location=LOCATION_BACKEND,
            platform=PLATFORM_EBPF,
            pass_name="EbpfTailCallLowering",
            paper_reference="§6 generalization (kernel-extension targets)",
            trigger_features=("many_tables",),
        ),
        SeededBug(
            bug_id="ebpf_map_lookup_miss_action",
            description=(
                "The eBPF back end's map-lookup jump table has no miss "
                "branch, so a lookup miss falls through into the first "
                "action instead of running the declared default"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_BACKEND,
            platform=PLATFORM_EBPF,
            pass_name="EbpfMapLowering",
            paper_reference="§6 generalization (kernel-extension targets)",
            trigger_features=("table",),
        ),
        SeededBug(
            bug_id="ebpf_narrowing_cast_drop",
            description=(
                "The eBPF back end drops the masking instruction after a "
                "narrowing register move, so narrowing casts keep the "
                "source's high bits"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_BACKEND,
            platform=PLATFORM_EBPF,
            pass_name="EbpfByteCodeGen",
            paper_reference="§6 generalization (kernel-extension targets)",
            trigger_features=("cast",),
        ),
        SeededBug(
            bug_id="ebpf_byte_order_swap",
            description=(
                "The eBPF back end loads 16-bit header fields without the "
                "network-to-host byte swap"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_BACKEND,
            platform=PLATFORM_EBPF,
            pass_name="EbpfContextLoad",
            paper_reference="§6 generalization (kernel-extension targets)",
            trigger_features=("sixteen_bit_field",),
        ),
        SeededBug(
            bug_id="ebpf_register_write_drops_high_byte",
            description=(
                "The eBPF back end's end-of-packet flush persists register "
                "cells into their array map through a value one byte too "
                "small, so written cells wider than a byte lose their high "
                "byte between packets; same-packet reads still see the full "
                "scratch value, so only a multi-packet sequence observes it"
            ),
            kind=KIND_SEMANTIC,
            location=LOCATION_BACKEND,
            platform=PLATFORM_EBPF,
            pass_name="EbpfMapFlush",
            paper_reference="§6 generalization (stateful externs)",
            trigger_features=("register", "wide_register"),
        ),
    ]
)


def bugs_by_kind(kind: str) -> List[SeededBug]:
    """All catalog entries of a given kind (``crash`` / ``semantic``)."""

    return [bug for bug in BUG_CATALOG.values() if bug.kind == kind]


def bugs_by_location(location: str) -> List[SeededBug]:
    """All catalog entries at a given location (front/mid/back end)."""

    return [bug for bug in BUG_CATALOG.values() if bug.location == location]


def bugs_by_platform(platform: str) -> List[SeededBug]:
    """All catalog entries attributed to a platform (p4c/bmv2/tofino/ebpf)."""

    return [bug for bug in BUG_CATALOG.values() if bug.platform == platform]


def frontend_midend_bug_ids() -> List[str]:
    """Identifiers of every front-end and mid-end bug (the P4C bugs)."""

    return [
        bug.bug_id
        for bug in BUG_CATALOG.values()
        if bug.location in (LOCATION_FRONTEND, LOCATION_MIDEND)
    ]
