"""Client requests and at-most-once execution bookkeeping.

A request is identified by ``(client, seq)`` — clients number their
requests, so retransmissions (clients resend on timeout, §3.3: "if the
leader fails to receive the expected response ... it retransmits") are
recognizable and the service executes each request at most once.
"""

from __future__ import annotations

import enum
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


class Verdict(enum.Enum):
    """What the executed table says about one arriving client request."""

    NEW = "new"              # never executed: propose it
    DUPLICATE = "duplicate"  # this very request executed: answer its cached reply
    STALE = "stale"          # its client has moved on: drop it, unanswered


#: Module-level names for the hot path: a global load, where ``Verdict.NEW``
#: is a metaclass attribute lookup on every request.
NEW, DUPLICATE, STALE = Verdict

@dataclass(slots=True)
class ExecutedTable:
    """At-most-once table: remembers the reply for each executed request.

    Bounded per client: only the *latest* executed request per client is
    retained, which is sufficient because each client is closed-loop (it
    never issues request ``n+1`` before request ``n`` was answered), as in
    the paper's experiments. :meth:`verdict` is the one admission rule for
    a request that would take a consensus instance.
    """

    _latest: dict[ProcessId, tuple[int, Any]] = field(default_factory=dict)

    def record(self, rid: RequestId, reply_value: Any) -> None:
        prev = self._latest.get(rid.client)
        if prev is not None and prev[0] > rid.seq:
            # An older request finishing after a newer one would mean the
            # client pipelined — not supported by the closed-loop contract.
            return
        self._latest[rid.client] = (rid.seq, reply_value)

    def verdict(self, rid: RequestId) -> tuple[Verdict, Any]:
        """``(verdict, cached_reply)`` for ``rid``; the reply is None
        unless the verdict is DUPLICATE. A STALE request's client already
        had a newer request executed, so it stopped waiting for this one."""
        entry = self._latest.get(rid.client)
        if entry is None or entry[0] < rid.seq:
            return NEW, None
        if entry[0] == rid.seq:
            return DUPLICATE, entry[1]
        return STALE, None

    def snapshot(self) -> dict[ProcessId, tuple[int, Any]]:
        """Copy of the table, for checkpointing."""
        return dict(self._latest)

    def restore(self, data: dict[ProcessId, tuple[int, Any]]) -> None:
        self._latest = dict(data)
