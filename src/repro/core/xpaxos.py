"""X-Paxos: the read-request optimization (§3.4).

Reads are not totally ordered — only their position relative to writes
matters: "the value that the service returns as a response to a read must
reflect the latest update". X-Paxos is a majority-voting protocol, not a
consensus protocol: the leader executes the read *while concurrently*
collecting Confirm messages from a majority (each replica confirms the
highest ballot it has accepted). Because a process becomes leader only
after a majority accepted its ballot, only the latest leader can assemble
a confirming majority — a deposed leader that missed a write can never
answer a read, which is exactly the §3.4 consistency requirement.

Latency: ``2M + max(E, m)`` versus the basic protocol's ``2M + E + 2m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.messages import Confirm, Reply
from repro.core.requests import ClientRequest, RequestId
from repro.types import ProcessId, ReplyStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.group import ReplicationGroup


@dataclass(slots=True)
class _PendingRead:
    request: ClientRequest
    src: ProcessId
    ready: bool = False          # execution finished (E elapsed)
    reply_value: Any = None
    started_at: float = 0.0      # leader receipt time (confirm-round metric)
    ctx: Any = None              # tracing: the ClientRequest delivery span
    span: Any = None             # tracing: the read's execute span (E > 0)


class ReadCoordinator:
    """Leader-side X-Paxos machinery.

    Confirms may overtake the read's arrival at the leader (they travel
    client->backup->leader while the leader may still be executing), so
    confirms are accumulated independently of pending reads and joined on
    either arrival order.
    """

    def __init__(self, replica: "ReplicationGroup") -> None:
        self.replica = replica
        self._pending: dict[RequestId, _PendingRead] = {}
        #: rid -> confirming replica ids (for the *current* ballot only).
        self._confirms: dict[RequestId, set[ProcessId]] = {}
        #: highest finished read seq per client, to GC late confirms.
        self._finished: dict[ProcessId, int] = {}

    # ------------------------------------------------------------ leader side
    def begin(self, src: ProcessId, request: ClientRequest) -> None:
        """Start serving a read at the leader."""
        rid = request.rid
        if rid in self._pending:
            return  # client retransmit; the original is still being served
        if self._finished.get(rid.client, -1) >= rid.seq:
            # Retransmit of an already-answered read: re-execute fresh (reads
            # are idempotent), don't wait for stale confirms.
            self._finished[rid.client] = rid.seq - 1
        pending = _PendingRead(request=request, src=src, started_at=self.replica.now)
        self._pending[rid] = pending
        tracer = self.replica.tracer
        pending.ctx = tracer.current
        execute_time = self.replica.config.execute_time
        if execute_time > 0:
            # Execution and confirm-collection proceed in parallel (§3.4):
            # the read completes at max(E, confirm latency).
            if tracer.enabled:
                pending.span = tracer.start_span(
                    "execute", pid=self.replica.pid, kind="execute",
                    attrs={"rid": str(rid)},
                )
            token = tracer.activate(pending.span)
            try:
                self.replica.set_timer(execute_time, self._executed, rid)
            finally:
                tracer.restore(token)
        else:
            self._executed(rid)

    def _executed(self, rid: RequestId) -> None:
        pending = self._pending.get(rid)
        if pending is None:
            return
        self.replica.tracer.end(pending.span)
        try:
            pending.reply_value = self.replica.execute_read(pending.request)
        except Exception as exc:  # malformed read: reject, don't crash
            del self._pending[rid]
            self._confirms.pop(rid, None)
            self.replica.send(
                pending.src,
                Reply(rid=rid, status=ReplyStatus.ERROR, value=f"bad request: {exc}",
                      leader=self.replica.pid),
            )
            return
        pending.ready = True
        self._maybe_finish(rid)

    def on_confirm(self, src: ProcessId, msg: Confirm) -> None:
        replica = self.replica
        replica.observe_round(msg.ballot.round)
        if not replica.is_active_or_recovering_leader or msg.ballot != replica.ballot:
            return  # confirm for someone else's (or a stale) ballot
        if self._finished.get(msg.rid.client, -1) >= msg.rid.seq:
            return  # late confirm for an answered read
        self._confirms.setdefault(msg.rid, set()).add(src)
        self._maybe_finish(msg.rid)

    def _maybe_finish(self, rid: RequestId) -> None:
        pending = self._pending.get(rid)
        if pending is None or not pending.ready:
            return
        replica = self.replica
        # The leader's own acceptance of its ballot counts as one confirm.
        confirms = self._confirms.get(rid, set()) | {replica.pid}
        if len(confirms) < replica.config.majority:
            return
        del self._pending[rid]
        self._finished[rid.client] = max(self._finished.get(rid.client, -1), rid.seq)
        stale = [r for r in self._confirms if r.client == rid.client and r.seq <= rid.seq]
        for r in stale:
            del self._confirms[r]
        metrics = replica.metrics
        if metrics.enabled:
            metrics.counter("xpaxos.reads_served").inc()
            # §3.4: the read completes at max(E, confirm latency); this is
            # that whole span, measured from the read's arrival at the leader.
            metrics.histogram("xpaxos.confirm_round").observe(
                replica.now - pending.started_at
            )
        # Reply inside the read's own trace: triggered by the deciding
        # event (execution done, or the majority-completing Confirm).
        token = replica.tracer.activate_for(pending.ctx)
        try:
            replica.send(
                pending.src,
                Reply(rid=rid, status=ReplyStatus.OK, value=pending.reply_value,
                      leader=replica.pid),
            )
        finally:
            replica.tracer.restore(token)

    # ------------------------------------------------------------ backup side
    def confirm_for_backup(self, request: ClientRequest) -> None:
        """Backup behaviour (§3.4): send a Confirm to the process holding the
        highest ballot this replica has accepted."""
        replica = self.replica
        promised = replica.promised
        if not promised.leader or promised.leader == replica.pid:
            return  # nothing promised yet, or the ballot is our own
        replica.send(promised.leader, Confirm(ballot=promised, rid=request.rid))

    # -------------------------------------------------------------- lifecycle
    def clear(self) -> None:
        """Leadership lost: drop pending reads (clients retransmit to the
        new leader) and accumulated confirms (they were for our ballot)."""
        tracer = self.replica.tracer
        if tracer.enabled:
            for pending in self._pending.values():
                tracer.end(pending.span, status="abandoned")
        self._pending.clear()
        self._confirms.clear()

    def reset(self) -> None:
        self.clear()
        self._finished.clear()

    @property
    def pending_count(self) -> int:
        return len(self._pending)
