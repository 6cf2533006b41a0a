"""Abstract syntax tree for the P4-16 subset.

Nodes are small mutable dataclasses.  Compiler passes never write to a node
they received: they are copy-on-write (:class:`repro.compiler.passes.CompilerPass`),
so the snapshots of one compilation share every subtree a pass left unchanged
and each snapshot still reads as it did when it was emitted.

The node set covers:

* expressions: integer/bool literals, variable paths, member access, bit
  slices, header-stack element access (``stack[0]``), unary/binary/ternary
  operators, casts, and method calls (``hdr.isValid()``, ``table.apply()``,
  ``stack.push_front(1)``...),
* statements: assignment, method-call statements, ``if``/``else``, blocks,
  variable declarations, ``return``, ``exit``,
* declarations: headers, structs, actions, functions, tables, controls,
  parsers, and the program.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.p4.types import BitType, BoolType, P4Type, VoidType


#: Per-class field-name cache for the hand-rolled structural clone and the
#: compiler's :class:`~repro.compiler.visitor.Transformer`; ``None`` marks
#: a class that is not a dataclass.
_CLONE_FIELDS: Dict[type, Optional[Tuple[str, ...]]] = {}


def node_field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """The dataclass field names of a node class, or ``None`` if it has none.

    Cached per class: ``dataclasses.fields()`` rebuilds its tuple on every
    call, and passes rebuild every node they visit.
    """

    try:
        return _CLONE_FIELDS[cls]
    except KeyError:
        try:
            names: Optional[Tuple[str, ...]] = tuple(f.name for f in dataclass_fields(cls))
        except TypeError:  # not a dataclass
            names = None
        _CLONE_FIELDS[cls] = names
        return names


def _clone_value(value):
    """Structurally clone one field value.

    AST nodes are cloned recursively; lists and tuples are rebuilt; every
    other value the AST stores (ints, strings, bools, ``None`` and the
    frozen :class:`~repro.p4.types.P4Type` instances) is immutable and can
    be shared between snapshots.
    """

    if isinstance(value, Node):
        return value.clone()
    if type(value) is list:
        return [_clone_value(item) for item in value]
    if type(value) is tuple:
        return tuple(_clone_value(item) for item in value)
    return value


class Node:
    """Base class for every AST node."""

    def clone(self) -> "Node":
        """Deep structural copy of the node.

        Passes do not clone what they rewrite: they are copy-on-write (see
        :class:`repro.compiler.passes.CompilerPass`) and share unchanged
        nodes between snapshots.  They clone what they place a second time
        (an inlined body, a predicated assignment's target), and the stack
        and stateful lowerings clone a program before lowering it in place.
        The shared-prefix compile clones its input, because the reducer
        edits its working tree between compilations.

        Hand-rolled instead of ``copy.deepcopy``: the generic deepcopy
        machinery (memo dict, reduce protocol) dominated campaign profiles.
        The clone walks the dataclass fields directly and shares immutable
        leaves, which is roughly an order of magnitude cheaper.
        """

        cls = type(self)
        names = node_field_names(cls)
        if names is None:  # not a dataclass: fall back to deepcopy
            return copy.deepcopy(self)
        out = cls.__new__(cls)
        out_dict = out.__dict__
        self_dict = self.__dict__
        for name in names:
            out_dict[name] = _clone_value(self_dict[name])
        return out


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    """Base class for expressions."""


@dataclass
class Constant(Expression):
    """An integer literal, optionally carrying an explicit ``bit<width>`` type."""

    value: int
    width: Optional[int] = None

    def __str__(self) -> str:
        if self.width is not None:
            return f"{self.width}w{self.value}"
        return str(self.value)


@dataclass
class BoolLiteral(Expression):
    """``true`` or ``false``."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass
class PathExpression(Expression):
    """Reference to a named variable, parameter, table or action."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class Member(Expression):
    """Field access: ``expr.field``."""

    expr: Expression
    member: str

    def __str__(self) -> str:
        return f"{self.expr}.{self.member}"


@dataclass
class ArrayIndex(Expression):
    """Header-stack element access ``stack[index]``.

    The subset requires the index to be a compile-time constant (the type
    checker enforces it), so after the mid end a constant-indexed element
    behaves exactly like a scalar header instance.
    """

    expr: Expression
    index: Expression

    def __str__(self) -> str:
        return f"{self.expr}[{self.index}]"


@dataclass
class Slice(Expression):
    """Bit slice ``expr[high:low]`` (both bounds inclusive, high >= low)."""

    expr: Expression
    high: int
    low: int

    def __str__(self) -> str:
        return f"{self.expr}[{self.high}:{self.low}]"


#: Binary operators in the subset.  ``++`` is bit-vector concatenation.
BINARY_OPERATORS = (
    "+", "-", "*", "/", "%",
    "&", "|", "^", "<<", ">>", "++",
    "==", "!=", "<", "<=", ">", ">=",
    "&&", "||",
)

#: Operators whose result is Boolean.
BOOLEAN_RESULT_OPERATORS = ("==", "!=", "<", "<=", ">", ">=", "&&", "||")

#: Operators whose operands are Boolean.
BOOLEAN_OPERAND_OPERATORS = ("&&", "||")


@dataclass
class BinaryOp(Expression):
    """A binary operation."""

    op: str
    left: Expression
    right: Expression

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class UnaryOp(Expression):
    """A unary operation: ``!`` (bool), ``~`` (bitwise), ``-`` (negation)."""

    op: str
    expr: Expression

    def __str__(self) -> str:
        return f"({self.op}{self.expr})"


@dataclass
class Ternary(Expression):
    """The conditional operator ``cond ? then : orelse``."""

    cond: Expression
    then: Expression
    orelse: Expression

    def __str__(self) -> str:
        return f"({self.cond} ? {self.then} : {self.orelse})"


@dataclass
class Cast(Expression):
    """An explicit cast ``(bit<w>) expr`` or ``(bool) expr``."""

    target: P4Type
    expr: Expression

    def __str__(self) -> str:
        return f"(({self.target}) {self.expr})"


@dataclass
class MethodCallExpression(Expression):
    """A method or function call used as an expression or statement."""

    target: Expression
    args: List[Expression] = field(default_factory=list)

    def __str__(self) -> str:
        args = ", ".join(str(arg) for arg in self.args)
        return f"{self.target}({args})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Node):
    """Base class for statements."""


@dataclass
class AssignmentStatement(Statement):
    """``lhs = rhs;`` -- the left-hand side is a path, member or slice."""

    lhs: Expression
    rhs: Expression


@dataclass
class MethodCallStatement(Statement):
    """A call used for its effect, e.g. ``t.apply();`` or ``h.setValid();``."""

    call: MethodCallExpression


@dataclass
class IfStatement(Statement):
    """``if (cond) { ... } else { ... }``."""

    cond: Expression
    then_branch: "BlockStatement"
    else_branch: Optional["BlockStatement"] = None


@dataclass
class BlockStatement(Statement):
    """A brace-delimited list of statements."""

    statements: List[Statement] = field(default_factory=list)


@dataclass
class VariableDeclaration(Statement):
    """``bit<8> x = init;`` -- also used for control-local declarations."""

    name: str
    var_type: P4Type
    initializer: Optional[Expression] = None


@dataclass
class ReturnStatement(Statement):
    """``return expr;`` (the expression is optional for void functions)."""

    value: Optional[Expression] = None


@dataclass
class ExitStatement(Statement):
    """``exit;`` -- terminates processing of the current block immediately."""


@dataclass
class EmptyStatement(Statement):
    """``;`` -- occasionally produced by compiler passes."""


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Declaration(Node):
    """Base class for declarations."""


#: Parameter directions (P4-16 §6.7 copy-in/copy-out calling convention).
DIRECTIONS = ("in", "out", "inout", "")


@dataclass
class Parameter(Node):
    """A function / action / control parameter with a direction."""

    direction: str
    param_type: P4Type
    name: str

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"invalid parameter direction {self.direction!r}")

    @property
    def is_readable(self) -> bool:
        """Whether the callee may read the parameter before writing it."""

        return self.direction in ("in", "inout", "")

    @property
    def is_writable(self) -> bool:
        """Whether writes to the parameter are copied back to the caller."""

        return self.direction in ("out", "inout")


@dataclass
class HeaderDeclaration(Declaration):
    """``header Name { bit<8> a; ... }``."""

    name: str
    fields: List[Tuple[str, BitType]] = field(default_factory=list)


@dataclass
class StructDeclaration(Declaration):
    """``struct Name { ... }`` -- fields may be headers, bits or bools."""

    name: str
    fields: List[Tuple[str, P4Type]] = field(default_factory=list)


@dataclass
class RegisterDeclaration(Declaration):
    """``register<bit<W>>(N) name;`` -- a control-local stateful extern.

    Registers hold persistent switch state: the cells survive across
    packets, so programs using them only have well-defined semantics under
    the multi-packet execution model (``SwitchState`` concretely, the state
    vector of :class:`~repro.core.interpreter.BlockSemantics` symbolically).
    """

    name: str
    width: int
    size: int


@dataclass
class CounterDeclaration(Declaration):
    """``counter(N) name;`` -- a bank of packet counters (count-only)."""

    name: str
    size: int


@dataclass
class ActionDeclaration(Declaration):
    """``action name(dir type param, ...) { body }``."""

    name: str
    params: List[Parameter] = field(default_factory=list)
    body: BlockStatement = field(default_factory=BlockStatement)


@dataclass
class FunctionDeclaration(Declaration):
    """A helper function with a return type (P4-16 functions)."""

    name: str
    return_type: P4Type = field(default_factory=VoidType)
    params: List[Parameter] = field(default_factory=list)
    body: BlockStatement = field(default_factory=BlockStatement)


@dataclass
class ActionRef(Node):
    """Reference to an action from a table property (name plus bound args)."""

    name: str
    args: List[Expression] = field(default_factory=list)


@dataclass
class KeyElement(Node):
    """One table key: the expression to match and the match kind."""

    expr: Expression
    match_kind: str = "exact"


@dataclass
class TableDeclaration(Declaration):
    """A match-action table."""

    name: str
    keys: List[KeyElement] = field(default_factory=list)
    actions: List[ActionRef] = field(default_factory=list)
    default_action: Optional[ActionRef] = None


@dataclass
class ControlDeclaration(Declaration):
    """A control block: parameters, local declarations and the apply body."""

    name: str
    params: List[Parameter] = field(default_factory=list)
    locals: List[
        Union[
            VariableDeclaration,
            ActionDeclaration,
            TableDeclaration,
            RegisterDeclaration,
            CounterDeclaration,
        ]
    ] = field(default_factory=list)
    apply: BlockStatement = field(default_factory=BlockStatement)


@dataclass
class SelectCase(Node):
    """One arm of a parser ``select``: a match value (or default) and a state."""

    value: Optional[Expression]  # None means "default"
    next_state: str


@dataclass
class ParserState(Node):
    """A parser state: statements followed by a transition."""

    name: str
    statements: List[Statement] = field(default_factory=list)
    select_expr: Optional[Expression] = None
    cases: List[SelectCase] = field(default_factory=list)
    next_state: Optional[str] = None  # direct transition when select_expr is None


@dataclass
class ParserDeclaration(Declaration):
    """A parser: parameters and named states (``start`` is the entry state)."""

    name: str
    params: List[Parameter] = field(default_factory=list)
    states: List[ParserState] = field(default_factory=list)

    def state(self, name: str) -> Optional[ParserState]:
        for state in self.states:
            if state.name == name:
                return state
        return None


@dataclass
class Program(Node):
    """A whole P4 program: an ordered list of top-level declarations."""

    declarations: List[Declaration] = field(default_factory=list)

    # -- lookup helpers ----------------------------------------------------

    def headers(self) -> List[HeaderDeclaration]:
        return [decl for decl in self.declarations if isinstance(decl, HeaderDeclaration)]

    def structs(self) -> List[StructDeclaration]:
        return [decl for decl in self.declarations if isinstance(decl, StructDeclaration)]

    def controls(self) -> List[ControlDeclaration]:
        return [decl for decl in self.declarations if isinstance(decl, ControlDeclaration)]

    def parsers(self) -> List[ParserDeclaration]:
        return [decl for decl in self.declarations if isinstance(decl, ParserDeclaration)]

    def functions(self) -> List[FunctionDeclaration]:
        return [decl for decl in self.declarations if isinstance(decl, FunctionDeclaration)]

    def find(self, name: str) -> Optional[Declaration]:
        for decl in self.declarations:
            if getattr(decl, "name", None) == name:
                return decl
        return None


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def lvalue_root(expr: Expression) -> Optional[str]:
    """Return the root variable name of an l-value expression, if any."""

    node = expr
    while True:
        if isinstance(node, PathExpression):
            return node.name
        if isinstance(node, (Member, Slice, ArrayIndex)):
            node = node.expr
        else:
            return None


def is_lvalue(expr: Expression) -> bool:
    """True if the expression can appear on the left of an assignment."""

    if isinstance(expr, PathExpression):
        return True
    if isinstance(expr, Member):
        return is_lvalue(expr.expr)
    if isinstance(expr, Slice):
        return is_lvalue(expr.expr)
    if isinstance(expr, ArrayIndex):
        return is_lvalue(expr.expr)
    return False


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every AST node reachable from it (pre-order)."""

    return _walk(node, ())


def walk_statements(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every reachable node that is not an expression,
    without entering expressions (pre-order, the order of :func:`walk`).

    For scans that look only for statements or declarations: nothing but
    expressions is reachable from an expression, so they find the same
    nodes in far fewer steps.
    """

    return _walk(node, Expression)


def _walk(root: Node, skip) -> Iterator[Node]:
    """Pre-order walk from ``root`` that does not enter nodes of class
    ``skip``, on an explicit stack: the recursive generator it replaces
    resumed one ``yield from`` frame per level for every node it yielded."""

    stack = [root]
    pop = stack.pop
    while stack:
        node = pop()
        yield node
        children = []
        for value in node.__dict__.values():
            if isinstance(value, Node):
                if not isinstance(value, skip):
                    children.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        if not isinstance(item, skip):
                            children.append(item)
                    elif isinstance(item, tuple):
                        for sub in item:
                            if isinstance(sub, Node) and not isinstance(sub, skip):
                                children.append(sub)
        if children:
            children.reverse()
            stack.extend(children)
