"""The rules that read a file's syntax rather than its facts.

DET003 needs every loop and comprehension header, PROTO001 every import
statement and builtin call — neither of which the call-graph facts keep.
They are queries over the same project as the graph rules and read each
parsed file from ``project.contexts`` (one shared node list per file, see
:meth:`FileContext.walk`).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.graph.base import ProjectContext, Rule


def _at(rule: Rule, ctx: FileContext, node: ast.AST, message: str) -> Finding:
    return rule.finding(ctx.rel, node.lineno, message, col=node.col_offset + 1)


def _is_set_like(node: ast.expr) -> bool:
    """Conservatively: does this expression certainly produce a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_like(node.left) or _is_set_like(node.right)
    if isinstance(node, ast.IfExp):
        return _is_set_like(node.body) or _is_set_like(node.orelse)
    return False


class HashOrderIteration(Rule):
    """DET003. The only net for its defect: ``for peer in set(self.others):
    self.send(...)`` in ``_broadcast_frontier`` leaves tier-1 green and the
    chaos summaries byte-identical across repeats and three hash seeds
    (seeded in ``test_lint_selfscan.py::TestSeededViolation``). A set held
    in a local and iterated later is seen by nothing, this rule included."""

    rule_id = "DET003"
    summary = "iteration over a set without sorted()"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED. When the loop body "
        "emits messages, builds insertion-ordered dicts, or writes output, "
        "that order leaks into artifacts that must be byte-identical; "
        "wrap the expression in sorted(...). CI's hash-seed byte-compares "
        "did not catch the seeded case (docs/static-analysis.md)."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.contexts.values():
            iterables: list[ast.expr] = []
            for node in ctx.walk():
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables.append(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    iterables.extend(generator.iter for generator in node.generators)
            for expr in iterables:
                if _is_set_like(expr):
                    yield _at(
                        self,
                        ctx,
                        expr,
                        "iteration order of a set is hash-seed dependent; wrap "
                        "the iterable in sorted(...)",
                    )


#: Layers that must stay transport-agnostic and I/O-free.
PURE_LAYERS = frozenset({"core", "election"})

#: Module roots banned inside pure layers.
BANNED_MODULES = (
    "repro.transport",
    "socket",
    "asyncio",
    "threading",
    "selectors",
    "subprocess",
)

#: Builtins that perform direct I/O.
BANNED_BUILTINS = frozenset({"open", "print", "input"})


class CoreLayering(Rule):
    """PROTO001. The only net for its defect: ``import threading`` in
    ``core/group.py`` changes no test result and no artifact byte (seeded
    in ``test_lint_selfscan.py::TestSeededViolation``)."""

    rule_id = "PROTO001"
    summary = "transport import or direct I/O in a pure protocol layer"
    rationale = (
        "core/ and election/ run unchanged under two runtimes (the "
        "simulation kernel and the TCP runtime). Importing repro.transport, "
        "socket-level modules, or calling open()/print() ties the protocol "
        "to one runtime and punches a hole in the determinism contract — "
        "and an import alone fails no test."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.contexts.values():
            if ctx.layer in PURE_LAYERS:
                yield from self._check_file(ctx)

    def _check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module] if node.module else []
            else:
                modules = []
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in BANNED_BUILTINS
                    and node.func.id not in ctx.imports
                ):
                    yield _at(
                        self,
                        ctx,
                        node,
                        f"direct I/O call {node.func.id}() in layer "
                        f"'{ctx.layer}'; protocol code reports through the "
                        "injected runtime (metrics, traces, return values)",
                    )
            for module in modules:
                if any(
                    module == banned or module.startswith(banned + ".")
                    for banned in BANNED_MODULES
                ):
                    yield _at(
                        self,
                        ctx,
                        node,
                        f"layer '{ctx.layer}' imports {module}; protocol logic "
                        "must stay transport-agnostic (inject a runtime instead)",
                    )
