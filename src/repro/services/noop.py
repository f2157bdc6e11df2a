"""The paper's benchmark service: every request invokes an empty method.

"All three kinds of requests invoke an empty method and do not trigger any
actual operation" (§4) — the point is to isolate replication overhead. We
keep a few bytes of state (a version counter) so that write requests have
*something* to ship, matching "the size of service state is small (a few
bytes) in our experiments".

Optionally the state can be padded to an arbitrary size
(``state_size`` bytes) for the state-transfer-overhead ablation the paper
defers to [30].
"""

from __future__ import annotations

from typing import Any

from repro.services.base import ExecutionContext, ExecutionResult, Service


class NoopService(Service):
    """Empty-method service with a version counter as its whole state."""

    name = "noop"

    def __init__(self, state_size: int = 0) -> None:
        self.version = 0
        self._padding = bytes(state_size)

    # ------------------------------------------------------------- execution
    def execute(self, op: Any, ctx: ExecutionContext) -> ExecutionResult:
        kind = op[0] if isinstance(op, tuple) else op
        if kind in ("read", "original", None):
            return ExecutionResult(reply=self.version)
        if kind == "write":
            self.version += 1
            # A relative bump, not the new version: concurrent transactions
            # take no locks (see locks_for), so each commit adds its own.
            return ExecutionResult(reply=self.version, delta=1, repro=1)
        raise ValueError(f"unknown noop op {op!r}")

    # ----------------------------------------------------------- state moves
    def snapshot(self) -> Any:
        return (self.version, self._padding)

    def restore(self, snap: Any) -> None:
        self.version, self._padding = snap

    def apply_delta(self, delta: Any) -> None:
        self.version += delta

    def replay(self, op: Any, repro: Any) -> Any:
        self.version += repro
        return self.version

    def locks_for(self, op: Any) -> tuple[frozenset, frozenset]:
        # An empty method conflicts with nothing (§4: requests "do not
        # trigger any actual operation") — concurrent transactions must not
        # serialize on the token version counter.
        return frozenset(), frozenset()

    def state_fingerprint(self) -> Any:
        return self.version
