"""Client requests and at-most-once execution bookkeeping.

A request is identified by ``(client, seq)`` — clients number their
requests, so retransmissions (clients resend on timeout, §3.3: "if the
leader fails to receive the expected response ... it retransmits") are
recognizable and the service executes each request at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.types import ProcessId, RequestKind
from repro.util.fastpickle import KeepsWireSize, fast_pickle


@fast_pickle
@dataclass(frozen=True, slots=True)
class RequestId:
    """Globally unique, client-assigned request identifier."""

    client: ProcessId
    seq: int

    def __str__(self) -> str:
        return f"{self.client}#{self.seq}"


@fast_pickle
@dataclass(frozen=True, slots=True)
class ClientRequest(KeepsWireSize):
    """One client request as broadcast to all service replicas (§3.3).

    * ``rid`` — unique id for dedup and reply matching.
    * ``kind`` — read / write / original / transaction op (see
      :class:`repro.types.RequestKind`); determines which protocol path
      coordinates it.
    * ``op`` — the service-level operation payload (opaque to the protocol).
    * ``txn`` — transaction id for T-Paxos requests, else None.
    * ``txn_seq`` — for a ``TXN_OP``: its 0-based position within the
      transaction; for a ``TXN_COMMIT``: the number of ops the transaction
      contains. This lets a leader detect that it is being handed the
      *middle* of a transaction it never saw the start of (which happens
      when a client's retransmissions land on a new leader after a switch,
      §3.6) and abort instead of committing a torn suffix.
    """

    rid: RequestId
    kind: RequestKind
    op: Any = None
    txn: str | None = None
    txn_seq: int = 0

    def __str__(self) -> str:
        txn = f" txn={self.txn}" if self.txn else ""
        return f"req({self.rid}, {self.kind.value}{txn})"


@dataclass(slots=True)
class ExecutedTable:
    """At-most-once table: remembers the reply for each executed request.

    Bounded per client: only the *latest* executed request per client is
    retained, which is sufficient because each client is closed-loop (it
    never issues request ``n+1`` before request ``n`` was answered), as in
    the paper's experiments. ``seen`` answers "was this exact request
    already executed?" and returns the cached reply value for retransmits.
    """

    _latest: dict[ProcessId, tuple[int, Any]] = field(default_factory=dict)

    def record(self, rid: RequestId, reply_value: Any) -> None:
        prev = self._latest.get(rid.client)
        if prev is not None and prev[0] > rid.seq:
            # An older request finishing after a newer one would mean the
            # client pipelined — not supported by the closed-loop contract.
            return
        self._latest[rid.client] = (rid.seq, reply_value)

    def lookup(self, rid: RequestId) -> tuple[bool, Any]:
        """Return ``(executed, cached_reply)`` for ``rid``."""
        entry = self._latest.get(rid.client)
        if entry is not None and entry[0] == rid.seq:
            return True, entry[1]
        return False, None

    def is_stale(self, rid: RequestId) -> bool:
        """True when a *newer* request from the same client already executed."""
        entry = self._latest.get(rid.client)
        return entry is not None and entry[0] > rid.seq

    def snapshot(self) -> dict[ProcessId, tuple[int, Any]]:
        """Copy of the table, for checkpointing."""
        return dict(self._latest)

    def restore(self, data: dict[ProcessId, tuple[int, Any]]) -> None:
        self._latest = dict(data)
