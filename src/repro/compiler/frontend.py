"""Front-end compiler passes.

The front end mirrors the responsibilities of P4C's front end: type
checking, function inlining with copy-in/copy-out elaboration, moving action
parameters into local copies, and def-use simplification.  Several of the
seeded defects from :mod:`repro.compiler.bugs` live here.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set

from repro.compiler.errors import CompilerCrash, CompilerError
from repro.compiler.passes import CompilerPass, PassContext
from repro.compiler.visitor import Transformer, map_controls, replace_items
from repro.p4 import ast
from repro.p4.typecheck import TypeCheckError, check_program
from repro.p4.types import BitType, VoidType


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


class SubstituteNames(Transformer):
    """Replace references to the given names with replacement expressions."""

    def __init__(self, bindings: Dict[str, ast.Expression]) -> None:
        self.bindings = bindings

    def visit_PathExpression(self, node: ast.PathExpression) -> ast.Expression:
        replacement = self.bindings.get(node.name)
        if replacement is None:
            return node
        return replacement.clone()


def substitute(node: ast.Node, bindings: Dict[str, ast.Expression]) -> ast.Node:
    """Return a copy of ``node`` with parameter references substituted."""

    return SubstituteNames(bindings).transform(node.clone())


def collect_reads(node: ast.Node) -> Set[str]:
    """Names of variables read anywhere below ``node``.

    Assignment left-hand sides do not count as reads of the root variable
    unless the l-value is a slice or member (partial writes read-modify-write
    the enclosing storage).
    """

    collector = _ReadCollector()
    collector.transform(node)
    return collector.reads


class _ReadCollector(Transformer):
    def __init__(self) -> None:
        self.reads: Set[str] = set()

    def _add_paths(self, expr: ast.Node) -> None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.PathExpression):
                self.reads.add(sub.name)

    def visit_AssignmentStatement(self, stmt: ast.AssignmentStatement):
        self._add_paths(stmt.rhs)
        if not isinstance(stmt.lhs, ast.PathExpression):
            self._add_paths(stmt.lhs)
        return stmt

    def visit_PathExpression(self, expr: ast.PathExpression):
        self.reads.add(expr.name)
        return expr


# ---------------------------------------------------------------------------
# TypeChecking
# ---------------------------------------------------------------------------


class TypeChecking(CompilerPass):
    """Run the type checker over the whole program.

    Type errors on user programs are graceful :class:`CompilerError`
    rejections.  The seeded ``typecheck_shift_width_crash`` defect crashes on
    a legal-but-unusual shift expression instead (paper figure 5b).
    """

    name = "TypeChecking"
    location = "front_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        if context.bug_enabled("typecheck_shift_width_crash"):
            self._crash_on_unknown_width_shift(program)
        try:
            check_program(program)
        except TypeCheckError as exc:
            raise CompilerError(f"type error: {exc}") from exc
        return program

    @staticmethod
    def _crash_on_unknown_width_shift(program: ast.Program) -> None:
        for node in ast.walk(program):
            if (
                isinstance(node, ast.BinaryOp)
                and node.op == "<<"
                and isinstance(node.left, ast.Constant)
                and node.left.width is None
                and not isinstance(node.right, ast.Constant)
            ):
                raise CompilerCrash(
                    "cannot infer width of shift of an unsized literal by a "
                    "run-time value",
                    pass_name="TypeChecking",
                    signature="typeinference-shift-width",
                )


class TypeCheckingPost(CompilerPass):
    """Re-run the type checker on compiler-generated IR.

    After the front end has desugared the program, a type failure is no
    longer the user's fault: it means a previous pass produced malformed IR,
    so the failure is reported as a crash (the "snowball effect" of §7.2).
    """

    name = "TypeCheckingPost"
    location = "mid_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        try:
            check_program(program)
        except TypeCheckError as exc:
            raise CompilerCrash(
                f"post-front-end type check failed: {exc}",
                pass_name=self.name,
                signature="post-typecheck-invariant",
            ) from exc
        return program


# ---------------------------------------------------------------------------
# SimplifyDefUse
# ---------------------------------------------------------------------------


class SimplifyDefUse(CompilerPass):
    """Remove stores to local variables that are never read.

    The correct implementation is deliberately conservative: it only removes
    assignments to control-local variables that are never read anywhere in
    the control.  The seeded ``def_use_return_clears_scope`` defect models
    figure 5a: when the program contains a function with an ``inout``
    parameter and a ``return`` statement, the pass erroneously deletes the
    declarations of locals passed to that function, which makes a later
    type-checking pass crash.
    """

    name = "SimplifyDefUse"
    location = "front_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        buggy = context.bug_enabled("def_use_return_clears_scope")
        poisoned_functions = self._functions_with_inout_return(program) if buggy else set()
        return map_controls(
            program, lambda control: self._simplify_control(control, poisoned_functions)
        )

    @staticmethod
    def _functions_with_inout_return(program: ast.Program) -> Set[str]:
        poisoned: Set[str] = set()
        for function in program.functions():
            has_inout = any(param.direction == "inout" for param in function.params)
            has_return = any(
                isinstance(node, ast.ReturnStatement)
                for node in ast.walk_statements(function.body)
            )
            if has_inout and has_return:
                poisoned.add(function.name)
        return poisoned

    def _simplify_control(
        self, control: ast.ControlDeclaration, poisoned_functions: Set[str]
    ) -> ast.ControlDeclaration:
        reads = collect_reads(control)

        # Correct behaviour: drop assignments to never-read local variables.
        local_names = {
            local.name
            for local in control.locals
            if isinstance(local, ast.VariableDeclaration)
        }
        local_names |= {
            stmt.name
            for stmt in ast.walk_statements(control.apply)
            if isinstance(stmt, ast.VariableDeclaration)
        }
        control = _DeadStoreDropper(local_names - reads).transform(control)

        if poisoned_functions:
            control = self._buggy_clear_arguments(control, poisoned_functions)
        return control

    @staticmethod
    def _buggy_clear_arguments(
        control: ast.ControlDeclaration, poisoned_functions: Set[str]
    ) -> ast.ControlDeclaration:
        """The seeded defect: delete declarations of locals passed to poisoned calls."""

        doomed: Set[str] = set()
        for node in ast.walk(control):
            if isinstance(node, ast.MethodCallExpression) and isinstance(
                node.target, ast.PathExpression
            ):
                if node.target.name in poisoned_functions:
                    for arg in node.args:
                        root = ast.lvalue_root(arg)
                        if root is not None:
                            doomed.add(root)
        if not doomed:
            return control
        # Doomed control locals go too: they are statements in a list field.
        return _DeclarationDropper(doomed).transform(control)


class _DeadStoreDropper(Transformer):
    """Drop assignments to the given local variables."""

    def __init__(self, dead: Set[str]) -> None:
        self.dead = dead

    def visit_AssignmentStatement(self, stmt: ast.AssignmentStatement):
        if isinstance(stmt.lhs, ast.PathExpression) and stmt.lhs.name in self.dead:
            return None
        return stmt


class _DeclarationDropper(Transformer):
    """Drop the declarations of the given variables."""

    def __init__(self, doomed: Set[str]) -> None:
        self.doomed = doomed

    def visit_VariableDeclaration(self, decl: ast.VariableDeclaration):
        if decl.name in self.doomed:
            return None
        return decl


# ---------------------------------------------------------------------------
# InlineFunctions
# ---------------------------------------------------------------------------


class InlineFunctions(CompilerPass):
    """Inline all helper functions using copy-in/copy-out semantics.

    Seeded defects:

    * ``inline_missing_function`` -- calls nested inside larger expressions
      are skipped, leaving call nodes behind for later passes to trip over.
    * ``inline_alias_copy_out`` -- arguments are substituted textually
      instead of going through copy-in/copy-out temporaries.
    * ``side_effect_argument_order`` -- copy-out is performed right-to-left.
    """

    name = "InlineFunctions"
    location = "front_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        functions = {function.name: function for function in program.functions()}
        if not functions:
            return program
        inliner = _FunctionInliner(functions, context)
        new_decls: List[ast.Declaration] = []
        for decl in program.declarations:
            if isinstance(decl, ast.FunctionDeclaration):
                continue  # functions disappear after inlining
            if isinstance(decl, (ast.ControlDeclaration, ast.ParserDeclaration)):
                new_decls.append(inliner.transform(decl))
            else:
                new_decls.append(decl)
        return ast.Program(new_decls)


class _FunctionInliner(Transformer):
    """Statement-level rewriting that expands function calls."""

    def __init__(self, functions: Dict[str, ast.FunctionDeclaration], context: PassContext) -> None:
        self.functions = functions
        self.context = context

    # Each statement that may contain calls is expanded into a list of
    # statements (the visitor framework splices lists back into blocks).

    def visit_AssignmentStatement(self, stmt: ast.AssignmentStatement):
        prelude: List[ast.Statement] = []
        rhs = self._expand_expression(stmt.rhs, prelude, top_level=True)
        lhs = self._expand_expression(stmt.lhs, prelude, top_level=False)
        if lhs is stmt.lhs and rhs is stmt.rhs:
            return stmt
        new_stmt = ast.AssignmentStatement(lhs, rhs)
        if prelude:
            return prelude + [new_stmt]
        return new_stmt

    def visit_VariableDeclaration(self, stmt: ast.VariableDeclaration):
        if stmt.initializer is None:
            return stmt
        prelude: List[ast.Statement] = []
        initializer = self._expand_expression(stmt.initializer, prelude, top_level=True)
        if initializer is stmt.initializer:
            return stmt
        new_stmt = ast.VariableDeclaration(stmt.name, stmt.var_type, initializer)
        if prelude:
            return prelude + [new_stmt]
        return new_stmt

    def visit_IfStatement(self, stmt: ast.IfStatement):
        prelude: List[ast.Statement] = []
        cond = self._expand_expression(stmt.cond, prelude, top_level=False)
        then_branch = self.transform(stmt.then_branch)
        else_branch = self.transform(stmt.else_branch) if stmt.else_branch else None
        if (
            cond is stmt.cond
            and then_branch is stmt.then_branch
            and else_branch is stmt.else_branch
        ):
            return stmt
        new_stmt = ast.IfStatement(cond, then_branch, else_branch)
        if prelude:
            return prelude + [new_stmt]
        return new_stmt

    def visit_MethodCallStatement(self, stmt: ast.MethodCallStatement):
        call = stmt.call
        if isinstance(call.target, ast.PathExpression) and call.target.name in self.functions:
            statements, _ = self._inline_call(call)
            return statements
        # Arguments of other calls (e.g. extern-like emit) may contain calls.
        prelude: List[ast.Statement] = []
        new_args = [self._expand_expression(arg, prelude, top_level=False) for arg in call.args]
        if all(new is arg for new, arg in zip(new_args, call.args)):
            return stmt
        new_stmt = ast.MethodCallStatement(
            ast.MethodCallExpression(call.target, new_args)
        )
        if prelude:
            return prelude + [new_stmt]
        return new_stmt

    # -- expression expansion -------------------------------------------------

    def _expand_expression(
        self, expr: ast.Expression, prelude: List[ast.Statement], top_level: bool
    ) -> ast.Expression:
        """Replace function calls inside ``expr`` with their inlined results."""

        if isinstance(expr, ast.MethodCallExpression) and isinstance(
            expr.target, ast.PathExpression
        ) and expr.target.name in self.functions:
            if not top_level and self.context.bug_enabled("inline_missing_function"):
                # Seeded defect: nested calls are left alone.
                return expr
            statements, result = self._inline_call(expr)
            prelude.extend(statements)
            if result is None:
                raise CompilerError(
                    f"void function {expr.target.name!r} used in an expression"
                )
            return result
        return _NestedCallExpander(self, prelude).transform(expr)

    # -- the actual inlining --------------------------------------------------------

    def _inline_call(
        self, call: ast.MethodCallExpression
    ) -> tuple[List[ast.Statement], Optional[ast.Expression]]:
        function = self.functions[call.target.name]
        if len(call.args) != len(function.params):
            raise CompilerError(
                f"call to {function.name!r} has {len(call.args)} arguments, "
                f"expected {len(function.params)}"
            )

        alias_bug = self.context.bug_enabled("inline_alias_copy_out")
        reverse_copy_out = self.context.bug_enabled("side_effect_argument_order")

        statements: List[ast.Statement] = []
        bindings: Dict[str, ast.Expression] = {}
        copy_out: List[ast.AssignmentStatement] = []

        for param, arg in zip(function.params, call.args):
            if alias_bug:
                # Seeded defect: substitute the argument l-value directly.
                bindings[param.name] = arg
                continue
            temp = self.context.fresh_name(f"{function.name}_{param.name}")
            initializer = arg.clone() if param.is_readable else None
            statements.append(
                ast.VariableDeclaration(temp, param.param_type, initializer)
            )
            bindings[param.name] = ast.PathExpression(temp)
            if param.is_writable:
                copy_out.append(
                    ast.AssignmentStatement(arg.clone(), ast.PathExpression(temp))
                )

        return_temp: Optional[str] = None
        if not isinstance(function.return_type, VoidType):
            return_temp = self.context.fresh_name(f"{function.name}_retval")
            statements.append(
                ast.VariableDeclaration(return_temp, function.return_type, None)
            )

        body = substitute(function.body, bindings)
        body = _rewrite_returns(body, return_temp)
        statements.extend(body.statements)

        if reverse_copy_out:
            copy_out = list(reversed(copy_out))
        statements.extend(copy_out)

        result = ast.PathExpression(return_temp) if return_temp is not None else None
        return statements, result


class _NestedCallExpander(Transformer):
    """Inline the function calls nested inside one expression, appending
    their statements to ``prelude``."""

    def __init__(self, outer: _FunctionInliner, prelude: List[ast.Statement]) -> None:
        self.outer = outer
        self.prelude = prelude

    def visit_MethodCallExpression(self, call: ast.MethodCallExpression):
        if (
            isinstance(call.target, ast.PathExpression)
            and call.target.name in self.outer.functions
        ):
            return self.outer._expand_expression(call, self.prelude, top_level=False)
        return self.generic_visit(call)


def _rewrite_returns(block: ast.BlockStatement, return_temp: Optional[str]) -> ast.BlockStatement:
    """Turn ``return expr;`` into an assignment to the return temporary."""

    return _ReturnRewriter(return_temp).transform(block)


class _ReturnRewriter(Transformer):
    def __init__(self, return_temp: Optional[str]) -> None:
        self.return_temp = return_temp

    def visit_ReturnStatement(self, stmt: ast.ReturnStatement):
        if stmt.value is None or self.return_temp is None:
            return ast.EmptyStatement()
        return ast.AssignmentStatement(ast.PathExpression(self.return_temp), stmt.value)


# ---------------------------------------------------------------------------
# RemoveActionParameters
# ---------------------------------------------------------------------------


class RemoveActionParameters(CompilerPass):
    """Expand direct action calls (actions invoked from ``apply`` with arguments).

    Actions referenced from tables keep their bodies; direct invocations are
    inlined with copy-in/copy-out just like function calls.  Seeded defects:

    * ``exit_ignores_copy_out`` -- copy-out statements are not inserted
      before ``exit`` statements (figure 5f),
    * ``action_param_slice_drop`` -- assignments to the root variable of a
      slice argument are deleted (figure 5d).
    """

    name = "RemoveActionParameters"
    location = "front_end"

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        return map_controls(program, lambda control: self._rewrite_control(control, context))

    def _rewrite_control(
        self, control: ast.ControlDeclaration, context: PassContext
    ) -> ast.ControlDeclaration:
        actions = {
            local.name: local
            for local in control.locals
            if isinstance(local, ast.ActionDeclaration)
        }
        if not actions:
            return control

        expander = _ActionCallExpander(actions, context)
        apply = expander.transform(control.apply)
        # Also expand direct action calls made from other action bodies, in
        # declaration order: a later body inlines an earlier action's
        # expanded body, so the expander's table follows each rewrite.
        locals_: List[ast.Declaration] = []
        for local in control.locals:
            if isinstance(local, ast.ActionDeclaration):
                body = expander.transform(local.body)
                if body is not local.body:
                    local = dataclasses.replace(local, body=body)
                    actions[local.name] = local
            locals_.append(local)
        # Actions that were only invoked directly are now fully expanded and
        # can be dropped; actions referenced by a table must stay.
        referenced: Set[str] = set()
        for local in locals_:
            if isinstance(local, ast.TableDeclaration):
                referenced.update(ref.name for ref in local.actions)
                if local.default_action is not None:
                    referenced.add(local.default_action.name)
        for node in ast.walk(apply):
            if isinstance(node, ast.MethodCallExpression) and isinstance(
                node.target, ast.PathExpression
            ):
                referenced.add(node.target.name)
        locals_ = [
            local
            for local in locals_
            if not (
                isinstance(local, ast.ActionDeclaration)
                and local.params
                and local.name not in referenced
            )
        ]
        if apply is not control.apply:
            control = dataclasses.replace(control, apply=apply)
        return replace_items(control, "locals", locals_)


class _ActionCallExpander(Transformer):
    def __init__(self, actions: Dict[str, ast.ActionDeclaration], context: PassContext) -> None:
        self.actions = actions
        self.context = context

    def visit_MethodCallStatement(self, stmt: ast.MethodCallStatement):
        call = stmt.call
        if not isinstance(call.target, ast.PathExpression):
            return stmt
        action = self.actions.get(call.target.name)
        if action is None or not call.args:
            return stmt
        return self._inline_action(action, call)

    def _inline_action(
        self, action: ast.ActionDeclaration, call: ast.MethodCallExpression
    ) -> List[ast.Statement]:
        drop_slice_assignments = self.context.bug_enabled("action_param_slice_drop")
        skip_copy_out_on_exit = self.context.bug_enabled("exit_ignores_copy_out")

        statements: List[ast.Statement] = []
        bindings: Dict[str, ast.Expression] = {}
        copy_out: List[ast.AssignmentStatement] = []
        slice_roots: Set[str] = set()

        for param, arg in zip(action.params, call.args):
            temp = self.context.fresh_name(f"{action.name}_{param.name}")
            initializer = arg.clone() if param.is_readable else None
            statements.append(ast.VariableDeclaration(temp, param.param_type, initializer))
            bindings[param.name] = ast.PathExpression(temp)
            if param.is_writable:
                copy_out.append(ast.AssignmentStatement(arg.clone(), ast.PathExpression(temp)))
            if isinstance(arg, ast.Slice):
                root = ast.lvalue_root(arg)
                if root is not None:
                    slice_roots.add(root)

        body = substitute(action.body, bindings)

        if drop_slice_assignments and slice_roots:
            body = _drop_assignments_to_roots(body, slice_roots)

        body = _insert_copy_out_before_exits(
            body, [] if skip_copy_out_on_exit else copy_out
        )

        statements.extend(body.statements)
        statements.extend(stmt.clone() for stmt in copy_out)
        return statements


def _drop_assignments_to_roots(
    block: ast.BlockStatement, roots: Set[str]
) -> ast.BlockStatement:
    """Seeded defect helper: delete assignments whose l-value root is in ``roots``."""

    return _PartialAssignmentDropper(roots).transform(block)


class _PartialAssignmentDropper(Transformer):
    def __init__(self, roots: Set[str]) -> None:
        self.roots = roots

    def visit_AssignmentStatement(self, stmt: ast.AssignmentStatement):
        root = ast.lvalue_root(stmt.lhs)
        if root in self.roots and isinstance(stmt.lhs, (ast.Slice, ast.Member)):
            return None
        return stmt


def _insert_copy_out_before_exits(
    block: ast.BlockStatement, copy_out: Sequence[ast.AssignmentStatement]
) -> ast.BlockStatement:
    """Insert copy-out assignments immediately before every ``exit``.

    P4-16 requires copy-out to happen even when the callee exits (this was
    clarified in the specification after the bug in figure 5f was reported).
    """

    return _CopyOutBeforeExits(copy_out).transform(block)


class _CopyOutBeforeExits(Transformer):
    def __init__(self, copy_out: Sequence[ast.AssignmentStatement]) -> None:
        self.copy_out = copy_out

    def visit_ExitStatement(self, stmt: ast.ExitStatement):
        if not self.copy_out:
            return stmt
        return [assignment.clone() for assignment in self.copy_out] + [stmt]


# ---------------------------------------------------------------------------
# Parser graph analysis
# ---------------------------------------------------------------------------


class ParserGraphs(CompilerPass):
    """Analyse the parser state graph.

    The correct behaviour accepts cycles (parsing loops are legal and bounded
    by the packet length).  The seeded ``parser_loop_unroll_crash`` defect
    attempts to fully unroll the state graph and blows up on cycles.
    """

    name = "ParserGraphs"
    location = "front_end"

    MAX_UNROLL_DEPTH = 64

    def run(self, program: ast.Program, context: PassContext) -> ast.Program:
        for parser in program.parsers():
            self._check_states_exist(parser)
            if context.bug_enabled("parser_loop_unroll_crash") and self._has_cycle(parser):
                raise CompilerCrash(
                    f"parser {parser.name!r}: state graph unrolling exceeded "
                    f"{self.MAX_UNROLL_DEPTH} levels",
                    pass_name=self.name,
                    signature="parser-unroll-overflow",
                )
        return program

    @staticmethod
    def _check_states_exist(parser: ast.ParserDeclaration) -> None:
        known = {state.name for state in parser.states} | {"accept", "reject"}
        for state in parser.states:
            targets = [case.next_state for case in state.cases]
            if state.next_state is not None:
                targets.append(state.next_state)
            for target in targets:
                if target not in known:
                    raise CompilerError(
                        f"parser {parser.name!r}: transition to unknown state {target!r}"
                    )

    @staticmethod
    def _has_cycle(parser: ast.ParserDeclaration) -> bool:
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
            found = any(dfs(target) for target in edges[name])
            visiting.discard(name)
            visited.add(name)
            return found

        return any(dfs(state.name) for state in parser.states)


#: The default front-end pass pipeline, in execution order.
FRONTEND_PASSES = (
    TypeChecking,
    SimplifyDefUse,
    InlineFunctions,
    RemoveActionParameters,
    ParserGraphs,
)
