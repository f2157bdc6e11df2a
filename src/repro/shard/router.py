"""Deterministic key -> replication-group routing.

Sharding only works if every process — all replicas and any observer —
agrees on the mapping without exchanging a single message. The router
therefore hashes with :func:`zlib.crc32`, which is a pure function of the
key bytes: no process identity, no ``PYTHONHASHSEED``, no interning
effects. Two routers built with the same group count agree on every key
on every host, forever.

What gets routed where:

* keyed service ops (``("put", key, ...)``, ``("get", key)``, bank
  ``("deposit", account, ...)`` — anything whose second element is a
  string key) go to ``crc32(key) % n_groups``;
* keyless ops (``("keys",)``, ``("total",)``) go to group 0, the
  designated home for whole-service reads — with one group that is the
  only group, so unsharded behavior is unchanged by construction;
* transactional requests route by their *transaction id*, not their
  keys: every op of one transaction must land on one group's T-Paxos
  coordinator (``TXN_COMMIT`` carries no op at all). Cross-group
  transactions would need a 2PC layer on top — see ROADMAP.
"""

from __future__ import annotations

import zlib

from repro.core.requests import ClientRequest
from repro.errors import ConfigError
from repro.types import GroupId


class ShardRouter:
    """Total, deterministic, process-independent request router."""

    __slots__ = ("n_groups",)

    def __init__(self, n_groups: int) -> None:
        if n_groups < 1:
            raise ConfigError(f"need at least one group, got {n_groups}")
        self.n_groups = n_groups

    def group_for_key(self, key: str) -> GroupId:
        """The group owning ``key`` (pure function of the key bytes)."""
        return zlib.crc32(key.encode("utf-8")) % self.n_groups

    def group_for_op(self, op: object) -> GroupId:
        """The group owning a service op: by key when it has one, else 0."""
        if (
            isinstance(op, tuple)
            and len(op) >= 2
            and isinstance(op[1], str)
        ):
            return self.group_for_key(op[1])
        return 0

    def group_for_request(self, request: ClientRequest) -> GroupId:
        """Where a client request must be coordinated.

        Transactions pin every request of one txn id to one group (a
        commit has no op to hash, and split transactions would need
        cross-group atomic commit); everything else routes by its op.
        """
        if self.n_groups == 1:
            return 0  # every process routes every request: nothing to hash
        if request.txn is not None or request.kind.is_transactional:
            return self.group_for_key(str(request.txn))
        return self.group_for_op(request.op)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(n_groups={self.n_groups})"
