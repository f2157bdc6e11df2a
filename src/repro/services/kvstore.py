"""A deterministic key-value store.

Used throughout the test suite: it is deterministic, so it is also
replicable by the Multi-Paxos baseline, which lets tests cross-check the
nondeterministic protocol against plain state-machine replication. It
supports all three state-transfer modes and transactions (per-key 2PL;
a commit applies its ops' ``put``/``delete`` deltas).

Operations (tuples):

* ``("get", key)`` — read.
* ``("put", key, value)`` — write; returns the previous value.
* ``("delete", key)`` — write; returns the previous value.
* ``("cas", key, expected, new)`` — compare-and-swap; returns bool.
* ``("keys",)`` — read; returns the sorted key list.
"""

from __future__ import annotations

from typing import Any

from repro.services.base import ExecutionContext, ExecutionResult, Service

class KVStoreService(Service):
    """Dictionary with protocol-friendly plumbing."""

    name = "kvstore"

    def __init__(self) -> None:
        self.data: dict[Any, Any] = {}

    # ------------------------------------------------------------- execution
    def execute(self, op: Any, ctx: ExecutionContext) -> ExecutionResult:
        kind = op[0]
        if kind == "get":
            return ExecutionResult(reply=self.data.get(op[1]))
        if kind == "keys":
            return ExecutionResult(reply=sorted(self.data, key=repr))
        if kind == "put":
            _, key, value = op
            previous = self.data.get(key)
            self.data[key] = value
            return ExecutionResult(reply=previous, delta=("put", key, value), repro=None)
        if kind == "delete":
            _, key = op
            previous = self.data.pop(key, None)
            return ExecutionResult(reply=previous, delta=("delete", key), repro=None)
        if kind == "cas":
            _, key, expected, new = op
            if self.data.get(key) == expected:
                self.data[key] = new
                return ExecutionResult(reply=True, delta=("put", key, new), repro=True)
            return ExecutionResult(reply=False, repro=False)
        raise ValueError(f"unknown kvstore op {op!r}")

    # ----------------------------------------------------------- state moves
    def snapshot(self) -> Any:
        return dict(self.data)

    def restore(self, snap: Any) -> None:
        self.data = dict(snap)

    def apply_delta(self, delta: Any) -> None:
        if delta is None:
            return
        kind = delta[0]
        if kind == "put":
            self.data[delta[1]] = delta[2]
        elif kind == "delete":
            self.data.pop(delta[1], None)
        else:
            raise ValueError(f"unknown kvstore delta {delta!r}")

    def replay(self, op: Any, repro: Any) -> Any:
        # The store is deterministic except for cas outcomes racing with
        # nothing (they cannot race: execution is sequential), so replay is
        # plain re-execution. ``repro`` carries the cas outcome for sanity.
        kind = op[0]
        if kind == "cas" and repro is False:
            return False
        result = self.execute(op, None)  # type: ignore[arg-type]
        return result.reply

    # ----------------------------------------------------------- transactions
    def locks_for(self, op: Any) -> tuple[frozenset, frozenset]:
        kind = op[0]
        if kind == "get":
            return frozenset({op[1]}), frozenset()
        if kind == "keys":
            return frozenset({"__all__"}), frozenset()
        if kind in ("put", "delete", "cas"):
            return frozenset(), frozenset({op[1]})
        raise ValueError(f"unknown kvstore op {op!r}")

    def state_fingerprint(self) -> Any:
        return tuple(sorted(self.data.items(), key=repr))
