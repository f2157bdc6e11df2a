"""A counter with a deliberately nondeterministic increment.

The smallest possible demonstration of the paper's problem statement:
``("add_random", lo, hi)`` adds a uniformly random amount, so two replicas
executing the same request sequence diverge unless the protocol ships the
leader's outcome. REPRO-mode transfer sends just the drawn amount.

Operations:

* ``("get",)`` — read; returns the value.
* ``("add", n)`` — write; returns the new value.
* ``("add_random", lo, hi)`` — nondeterministic write; returns the new value.
"""

from __future__ import annotations

from typing import Any

from repro.services.base import ExecutionContext, ExecutionResult, Service


class CounterService(Service):
    """An integer with deterministic and nondeterministic increments."""

    name = "counter"

    def __init__(self) -> None:
        self.value = 0

    def execute(self, op: Any, ctx: ExecutionContext) -> ExecutionResult:
        kind = op[0]
        if kind == "get":
            return ExecutionResult(reply=self.value)
        if kind == "add":
            amount = op[1]
        elif kind == "add_random":
            amount = ctx.rng.randint(op[1], op[2])
        else:
            raise ValueError(f"unknown counter op {op!r}")
        self.value += amount
        return ExecutionResult(reply=self.value, delta=amount, repro=amount)

    def snapshot(self) -> Any:
        return self.value

    def restore(self, snap: Any) -> None:
        self.value = snap

    def apply_delta(self, delta: Any) -> None:
        self.value += delta

    def replay(self, op: Any, repro: Any) -> Any:
        """Re-execute with the leader's drawn amount instead of a fresh draw."""
        self.value += repro
        return self.value

    def locks_for(self, op: Any) -> tuple[frozenset, frozenset]:
        if op[0] == "get":
            return frozenset({"value"}), frozenset()
        return frozenset(), frozenset({"value"})

    def state_fingerprint(self) -> Any:
        return self.value
