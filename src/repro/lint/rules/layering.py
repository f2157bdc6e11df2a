"""PROTO rules: architectural layering of the protocol core.

``core/`` holds pure protocol logic driven entirely through the injected
:class:`~repro.sim.process.Process` runtime. The moment it imports a
transport or touches real I/O, the same protocol code can no longer run
identically under the simulator, the local-thread runtime and TCP — and
the simulator's determinism guarantee stops covering the code that ships.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.rules import register
from repro.lint.rules.base import Rule

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


@register
class CoreLayering(Rule):
    """PROTO001: core/ must not import transports or perform I/O."""

    rule_id = "PROTO001"
    summary = "transport import or direct I/O in a pure protocol layer"
    rationale = (
        "core/ and election/ run under three interchangeable runtimes "
        "(sim kernel, local threads, TCP). Importing repro.transport, "
        "socket-level modules, or calling open()/print() ties the protocol "
        "to one runtime and punches a hole in the determinism contract."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.layer not in PURE_LAYERS:
            return
        for node in ctx.walk():
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in BANNED_BUILTINS
                    and node.func.id not in ctx.imports
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"direct I/O call {node.func.id}() in layer "
                        f"'{ctx.layer}'; protocol code reports through the "
                        "injected runtime (metrics, traces, return values)",
                    )

    def _check_import(
        self, ctx: FileContext, node: ast.Import | ast.ImportFrom
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            base = node.module or ""
            modules = [base] if base else []
        for module in modules:
            if any(
                module == banned or module.startswith(banned + ".")
                for banned in BANNED_MODULES
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"layer '{ctx.layer}' imports {module}; protocol logic "
                    "must stay transport-agnostic (inject a runtime instead)",
                )


@register
class StableStoreBypass(Rule):
    """PROTO002: a replica's stable storage is never swapped out."""

    rule_id = "PROTO002"
    summary = "a .store attribute rebound to an existing object"
    rationale = (
        "Durability is modeled by repro.storage.StableStore: appends go "
        "through a CRC-framed WAL and become durable only after an fsync "
        "barrier. Rebinding a replica's .store to an existing object "
        "bypasses that boundary: the state then survives crashes it "
        "should have lost, and the storage nemeses (torn writes, lying "
        "fsyncs) can no longer reach it."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Assign):
                continue
            # Constructing a fresh store object is how owners initialize
            # themselves; aliasing or swapping in an *existing* object is
            # the bypass this rule exists for.
            if isinstance(node.value, ast.Call):
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute) and target.attr == "store":
                    yield self.finding(
                        ctx,
                        node,
                        "rebinding .store to an existing object swaps a "
                        "replica's stable storage out from under the "
                        "durability model; construct a StableStore or go "
                        "through its API",
                    )
