"""T-Paxos: the transaction optimization (§3.5).

"The leader does not need to coordinate with other service replicas until
it sees the commit message, and it can reply to each client request
immediately. ... the response time of individual requests is the same as
for an unreplicated service, but the overhead is paid at the commit phase."

Leader-side mechanics:

* a ``TXN_OP`` acquires its locks (no-wait strict 2PL,
  :mod:`repro.core.locks`), executes against the leader's service copy,
  records the result + undo, and is answered immediately;
* a ``TXN_COMMIT`` bundles the transaction's requests into **one**
  consensus instance whose state payload covers all its operations;
* a ``TXN_ABORT`` (from the client, from a lock conflict, or from a leader
  switch, §3.6) runs the undo records in reverse and releases the locks —
  nothing was replicated, so nothing else needs to happen.

Locks are held until the commit is *chosen*, so concurrent transactions
never observe state that could still roll back — the §3.5 consistency
hazard (T1 commits having read r2's effects while T2 aborts) cannot occur.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.messages import Proposal
from repro.core.proposer import ProposalItem
from repro.core.requests import ClientRequest, RequestId
from repro.core.state import build_payload
from repro.errors import ServiceError
from repro.services.base import ExecutionResult
from repro.types import InstanceId, ProcessId, ReplyStatus, RequestKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.group import ReplicationGroup


class TxnPhase(enum.Enum):
    ACTIVE = "active"
    COMMITTING = "committing"


@dataclass(slots=True)
class ActiveTxn:
    """Leader-side record of one open transaction."""

    txn_id: str
    client: ProcessId
    phase: TxnPhase = TxnPhase.ACTIVE
    requests: list[ClientRequest] = field(default_factory=list)
    results: list[ExecutionResult] = field(default_factory=list)
    #: op replies already sent, for retransmit dedup: rid -> value.
    replied: dict[RequestId, Any] = field(default_factory=dict)
    #: Causal-tracing scope span: first op -> commit chosen / rollback.
    span: Any = None
    #: Virtual time of the last request touching this transaction; idle
    #: transactions past ``config.txn_timeout`` are expired.
    last_activity: float = 0.0


class TxnManager:
    """Leader-side transaction bookkeeping. Volatile: a leader switch
    aborts every active transaction (§3.6)."""

    def __init__(self, replica: "ReplicationGroup") -> None:
        self.replica = replica
        self.active: dict[str, ActiveTxn] = {}
        self._expiry_armed = False

    # --------------------------------------------------------------- routing
    def on_request(self, src: ProcessId, request: ClientRequest) -> None:
        kind = request.kind
        if request.txn is not None:
            txn = self.active.get(request.txn)
            if txn is not None:
                txn.last_activity = self.replica.now
        if kind is RequestKind.TXN_OP:
            self._on_op(src, request)
        elif kind is RequestKind.TXN_COMMIT:
            self._on_commit(src, request)
        elif kind is RequestKind.TXN_ABORT:
            self._on_abort(src, request)
        else:  # pragma: no cover - routing guarantees
            raise AssertionError(f"non-transactional request routed here: {request}")

    # ------------------------------------------------------------------- ops
    def _on_op(self, src: ProcessId, request: ClientRequest) -> None:
        replica = self.replica
        assert request.txn is not None
        txn = self.active.get(request.txn)
        if txn is None:
            txn = ActiveTxn(
                txn_id=request.txn,
                client=request.rid.client,
                last_activity=replica.now,
            )
            self.active[request.txn] = txn
            self._arm_expiry()
            if replica.tracer.enabled:
                # A transaction scope is its own trace: it outlives each of
                # its ops' request traces and ends at commit/abort.
                txn.span = replica.tracer.start_trace(
                    f"txn:{txn.txn_id}", pid=replica.pid, kind="txn",
                    attrs={"txn": txn.txn_id, "client": txn.client},
                )
        if request.rid in txn.replied:  # client retransmit
            replica.reply(src, request.rid, ReplyStatus.OK, txn.replied[request.rid])
            return
        if txn.phase is not TxnPhase.ACTIVE:
            replica.reply(src, request.rid, ReplyStatus.ERROR, "transaction is committing")
            return
        if request.txn_seq != len(txn.requests):
            # We are missing earlier ops of this transaction (a leader
            # switch orphaned its prefix, §3.6): abort rather than commit a
            # torn suffix.
            self._rollback(txn, cause="missing_prefix")
            replica.reply(src, request.rid, ReplyStatus.ABORTED, "missing transaction prefix")
            return
        read_keys, write_keys = replica.service.locks_for(request.op)
        if not replica.locks.try_acquire(txn.txn_id, read_keys, write_keys):
            # No-wait policy: conflicting transactions abort immediately.
            self._rollback(txn, cause="lock_conflict")
            replica.reply(src, request.rid, ReplyStatus.ABORTED, "lock conflict")
            return
        try:
            result = replica.service.execute(request.op, replica.execution_context(txn=txn.txn_id))
        except ServiceError as exc:
            # The op failed cleanly (no state change); the txn stays alive.
            replica.reply(src, request.rid, ReplyStatus.ERROR, str(exc))
            return
        except Exception as exc:  # malformed op: reject, never crash the replica
            replica.reply(src, request.rid, ReplyStatus.ERROR, f"bad request: {exc}")
            return
        txn.requests.append(request)
        txn.results.append(result)
        txn.replied[request.rid] = result.reply
        # The T-Paxos point: answer now, replicate at commit.
        replica.reply(src, request.rid, ReplyStatus.OK, result.reply)

    # ---------------------------------------------------------------- commit
    def _on_commit(self, src: ProcessId, request: ClientRequest) -> None:
        replica = self.replica
        assert request.txn is not None
        executed, cached = replica.executed.lookup(request.rid)
        if executed:  # retransmit of a commit that was already chosen
            replica.reply(src, request.rid, ReplyStatus.OK, cached)
            return
        txn = self.active.get(request.txn)
        if txn is None:
            # Unknown transaction: it was aborted (leader switch or
            # conflict) or never reached this leader.
            replica.metrics.counter("tpaxos.abort.unknown_txn").inc()
            replica.reply(src, request.rid, ReplyStatus.ABORTED, "unknown transaction")
            return
        if txn.phase is TxnPhase.COMMITTING:
            return  # commit retransmit while the instance is in flight
        if request.txn_seq != len(txn.requests):
            # Incomplete transaction record (mid-stream leader switch).
            self._rollback(txn, cause="missing_prefix")
            replica.reply(src, request.rid, ReplyStatus.ABORTED, "missing transaction prefix")
            return
        txn.phase = TxnPhase.COMMITTING
        bundle = (*txn.requests, request)
        # The commit marker contributes an empty result so payload entries
        # stay aligned with the bundled requests.
        results = (*txn.results, ExecutionResult())

        def prepare() -> Any:
            # Everything already executed; just build the payload at our
            # position in the sequence (FULL snapshots are position-sensitive).
            payload = build_payload(replica.config.state_mode, replica.service, results)
            return Proposal(requests=bundle, payload=payload, reply="committed")

        def on_committed(proposal: Proposal, instance: InstanceId) -> None:
            replica.locks.release_all(txn.txn_id)
            self.active.pop(txn.txn_id, None)
            replica.metrics.counter("tpaxos.commits").inc()
            replica.tracer.end(txn.span)
            replica.reply(src, request.rid, ReplyStatus.OK, proposal.reply)

        replica.proposer.submit(
            ProposalItem(prepare=prepare, on_committed=on_committed,
                         ctx=replica.tracer.current)
        )

    # ----------------------------------------------------------------- abort
    def _on_abort(self, src: ProcessId, request: ClientRequest) -> None:
        replica = self.replica
        assert request.txn is not None
        txn = self.active.get(request.txn)
        if txn is not None and txn.phase is TxnPhase.ACTIVE:
            self._rollback(txn, cause="client_abort")
        replica.reply(src, request.rid, ReplyStatus.OK, "aborted")

    def _rollback(self, txn: ActiveTxn, cause: str = "admin") -> None:
        """Undo the transaction's effects on the leader's service copy.

        ``cause`` feeds the per-cause abort counters
        (``tpaxos.abort.<cause>``) the paper's §4.2 abort analysis needs.
        """
        for result in reversed(txn.results):
            if result.undo is not None:
                result.undo()
        self.replica.locks.release_all(txn.txn_id)
        self.active.pop(txn.txn_id, None)
        self.replica.tracer.end(txn.span, status=f"aborted:{cause}")
        self.replica.metrics.counter(f"tpaxos.abort.{cause}").inc()

    # ---------------------------------------------------------------- expiry
    def _arm_expiry(self) -> None:
        """Keep one sweep timer pending while transactions are open."""
        timeout = self.replica.config.txn_timeout
        if timeout <= 0 or self._expiry_armed:
            return
        self._expiry_armed = True
        self.replica.set_timer(timeout / 2, self._expire_sweep)

    def _expire_sweep(self) -> None:
        """Abort ACTIVE transactions idle past ``config.txn_timeout``.

        A client that abandoned its transaction (a stale leader during a
        partial view change answered one of its ops with ABORTED, so it
        retried under a fresh txn id) never sends TXN_ABORT for the old
        one; without expiry that zombie holds its locks — aborting every
        later transaction on the same keys — and its speculative effects,
        leaving this replica's service copy diverged forever. COMMITTING
        transactions are left alone: consensus decides their fate."""
        self._expiry_armed = False
        timeout = self.replica.config.txn_timeout
        if timeout <= 0:
            return
        now = self.replica.now
        for txn in list(self.active.values()):
            if txn.phase is TxnPhase.ACTIVE and now - txn.last_activity >= timeout:
                self._rollback(txn, cause="expired")
        if self.active:
            self._arm_expiry()

    def drop_all(self) -> None:
        """Leadership lost mid-transaction (§3.6): every active transaction
        dies. No undo runs — the replica rebuilds its whole service copy
        from the committed log right after, which also erases transactional
        effects. Clients learn the abort when they retransmit to the new
        leader (unknown transaction -> ABORTED)."""
        dropped = sum(1 for t in self.active.values() if t.phase is TxnPhase.ACTIVE)
        if dropped:
            self.replica.metrics.counter("tpaxos.abort.leader_switch").inc(dropped)
        tracer = self.replica.tracer
        if tracer.enabled:
            for txn in self.active.values():
                tracer.end(txn.span, status="aborted:leader_switch")
        self.active.clear()

    def reset(self) -> None:
        self.active.clear()
        # Crash path: pending sweep timers died with the process epoch.
        self._expiry_armed = False
