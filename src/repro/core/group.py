"""One replication group: acceptor + (potential) leader for a
nondeterministic service, composing the basic protocol (§3.3), X-Paxos
reads (§3.4), T-Paxos transactions (§3.5) and new-leader recovery.

A :class:`ReplicationGroup` is the unit the paper calls a replica —
proposer, log, service copy, txn/read coordinators, and elector — keyed
by a :class:`~repro.types.GroupId`. A replica process hosts one or more
groups behind one :class:`repro.shard.host.GroupHost`, each electing its
own leader and running its own log, all sharing the process's
stable-storage pump; on a bare runtime one group can also stand alone as
its own process (:class:`repro.core.replica.Replica`).

Request routing (the §4 experiment semantics):

* ``ORIGINAL`` — the unreplicated baseline: the leader executes and replies
  immediately, with **no** coordination. Backups ignore it.
* ``READ`` — X-Paxos when enabled: the leader executes while collecting a
  confirming majority; backups send a Confirm to the holder of the highest
  ballot they accepted. With ``xpaxos_reads=False`` reads flow through the
  basic protocol like writes.
* ``WRITE`` — the basic protocol: the leader executes the request when its
  turn in the sequential pipeline comes, proposes ``<req, state>`` for the
  next instance, commits on a majority of Accepteds, replies, then
  broadcasts ChosenBatch.
* ``TXN_*`` — T-Paxos: see :mod:`repro.core.tpaxos`.

Message dispatch is declarative: the class-level :data:`DISPATCH` table
maps each wire message type to its handler method. The table is shared by
every group (it is protocol shape, not per-group state) and is what the
whole-program analyzer reads to pair senders with handlers.

Stable storage (survives crashes, per the Paxos requirement): the promised
ballot, the accepted/chosen log, the highest ballot round observed, and the
latest checkpoint ``(instance, service snapshot, executed-table snapshot)``
— all routed through :class:`repro.storage.store.StableStore`, which owns
the group's WAL view; durability itself (fsync latency, crash/replay) is
the per-process :class:`repro.storage.store.StoragePump`. On recovery the
group replays checkpoint + WAL tail (``on_recover``); if the device is
untrustworthy (lost acked writes, rotted record) it fail-stops instead of
rejoining. Everything else is volatile and rebuilt in ``on_recover``.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from typing import Any

from repro.core.ballot import Ballot, ProposalNumber
from repro.core.config import SYNC_INTERVAL, ReplicaConfig
from repro.core.locks import LockManager
from repro.core.messages import (
    AcceptBatch,
    AcceptedBatch,
    CatchUpInfo,
    CatchUpQuery,
    ChosenBatch,
    Confirm,
    FrontierProbe,
    Nack,
    Prepare,
    Promise,
    Proposal,
    Reply,
)
from repro.core.proposer import DEFER, SKIP, ProposalItem, SequentialProposer
from repro.core.recovery import RecoveryCoordinator
from repro.core.requests import DUPLICATE, NEW, ClientRequest, ExecutedTable, RequestId
from repro.core.state import StatePayload, apply_payload, build_payload
from repro.core.tpaxos import TxnManager
from repro.core.xpaxos import ReadCoordinator
from repro.election.base import LeaderElector
from repro.errors import ServiceError
from repro.obs.handle import NULL_OBS, Obs
from repro.obs.spans import Span
from repro.services.base import ExecutionContext, ExecutionResult, Service
from repro.sim.process import Process
from repro.storage.store import StableStore, StoragePump
from repro.types import (
    GroupId,
    InstanceId,
    ProcessId,
    ReplyStatus,
    RequestKind,
    StateTransferMode,
)


class ReplicaRole(enum.Enum):
    """Local view of this group's role on this process."""

    FOLLOWER = "follower"
    RECOVERING = "recovering"   # elected, running the prepare/accept rounds
    LEADING = "leading"         # recovery done, serving requests


class _WriteItem:
    """The pipeline item of one plain (non-transactional) write: what
    :class:`~repro.core.proposer.SequentialProposer` asks of an item
    (``prepare``, ``on_committed``, ``ctx``) as methods of one small object.

    It refers to its group, the client and the request; nothing refers
    back to it but the queue, the in-flight batch, a lock wait or the
    execute timer that currently holds it, so it is freed by reference
    count the moment its round commits — one object per write and nothing
    for the cyclic collector.
    """

    __slots__ = ("group", "src", "request", "ctx", "waited")

    def __init__(self, group: "ReplicationGroup", src: ProcessId, request: ClientRequest) -> None:
        self.group = group
        self.src = src
        self.request = request
        #: Causal-tracing context the committed reply re-enters: the
        #: ClientRequest delivery span (or None), replaced by the execute
        #: span once E has been modeled.
        self.ctx = group.tracer.current
        self.waited = False

    def prepare(self) -> Any:
        group = self.group
        request = self.request
        rid = request.rid
        # The proposer runs only while LEADING (begin() at recovery_complete,
        # stop() at every step-down), so the verdict is the one check.
        verdict, cached = group.executed.verdict(rid)
        if verdict is not NEW:  # committed or superseded meanwhile
            group._pending_write_rids.discard(rid)
            if verdict is DUPLICATE:
                group.reply(self.src, rid, ReplyStatus.OK, cached)
            return SKIP
        config = group.config
        tracer = group.tracer
        if config.execute_time > 0 and not self.waited:
            # Model the service's execution time E: the pipeline stalls
            # (a single-threaded leader executes requests in order) and
            # this item re-enters once E has elapsed.
            self.waited = True
            group.proposer.pause()
            # Executions x E is the leader's modeled execute time
            # (repro.cluster.metrics.sim_cpu_frames).
            group.metrics.counter("executions").inc()
            span: Span | None = None
            if tracer.enabled:
                span = tracer.start_span(
                    "execute", pid=group.pid, kind="execute",
                    parent=self.ctx, attrs={"rid": str(rid)},
                )
                self.ctx = span
            token = tracer.activate(span)
            try:
                group.set_timer(config.execute_time, self._execution_done, span)
            finally:
                tracer.restore(token)
            return DEFER
        owner = f"w:{rid}"
        read_keys, write_keys = group.service.locks_for(request.op)
        if not group.locks.acquire_or_wait(owner, read_keys, write_keys, grant=self._resubmit):
            return DEFER
        try:
            result = group.service.execute(request.op, group.execution_context())
        except Exception as exc:  # ServiceError or malformed op
            group.locks.release_all(owner)
            group._pending_write_rids.discard(rid)
            group.reply(self.src, rid, ReplyStatus.ERROR, str(exc))
            return SKIP
        if tracer.enabled and config.execute_time == 0:
            # E is not modeled: record a zero-length execute marker so
            # the waterfall still shows where execution happened.
            tracer.instant("execute", pid=group.pid, kind="execute", parent=self.ctx,
                           attrs={"rid": str(rid)})
        payload = group.payload((result,))
        # Plain writes cannot abort, so their locks are only needed for
        # the execution itself (they guard against interleaving with
        # uncommitted *transaction* state). Releasing here lets multiple
        # writes to the same keys share one pipeline batch.
        group.locks.release_all(owner)
        return Proposal(requests=(request,), payload=payload, reply=result.reply)

    def _execution_done(self, span: Span | None) -> None:
        """E has elapsed (timer; the trace names it by this method's
        name)."""
        proposer = self.group.proposer
        self.group.tracer.end(span)
        proposer.resubmit_front(self)
        proposer.resume()

    def _resubmit(self) -> None:
        """The locks this write waited for were granted."""
        self.group.proposer.resubmit_front(self)

    def on_committed(self, proposal: Proposal, instance: InstanceId) -> None:
        group = self.group
        rid = self.request.rid
        group._pending_write_rids.discard(rid)
        group.reply(self.src, rid, ReplyStatus.OK, proposal.reply)


class ReplicationGroup(Process):
    """One replica of one replication group (§3.1).

    ``obs`` is the group's instrumentation, taken as given: its ``metrics``
    is the scope every ``req.*`` / ``phase.*`` / ``storage.appends`` row of
    this group lands in, so the builder picks the name (a
    :class:`~repro.shard.host.GroupHost` passes ``proc.<pid>.g<group>``).
    """

    #: Declarative handler registry: message type -> handler method name.
    #: Exact types only — wire messages are final frozen dataclasses. The
    #: elector sees every message first (it filters its own traffic);
    #: anything not in the table counts as unknown.
    DISPATCH: dict[type, str] = {
        ClientRequest: "_on_client_request",
        AcceptBatch: "_on_accept_batch",
        AcceptedBatch: "_on_accepted_batch",
        Nack: "_on_nack",
        ChosenBatch: "_on_chosen_batch",
        Confirm: "_on_confirm",
        Prepare: "_on_prepare",
        Promise: "_on_promise",
        FrontierProbe: "_on_frontier_probe",
        CatchUpQuery: "_on_catch_up_query",
        CatchUpInfo: "_on_catch_up_info",
        Reply: "_on_reply",
    }

    def __init__(
        self,
        pid: ProcessId,
        config: ReplicaConfig,
        service_factory: Callable[[], Service],
        elector: LeaderElector,
        group: GroupId = 0,
        pump: StoragePump | None = None,
        obs: Obs = NULL_OBS,
    ) -> None:
        super().__init__(pid)
        if pid not in config.peers:
            raise ValueError(f"{pid!r} is not in the peer list {config.peers}")
        self.config = config
        self.group = group
        self.others = config.others(pid)
        self.service_factory = service_factory
        self.service: Service = service_factory()
        self.elector = elector
        elector.attach(self, config.peers)

        # ----- stable state (survives crashes via repro.storage) -----
        self.store = StableStore(self, pump=pump, group=group)
        self.store.initialize(self.service.snapshot())
        self.log = self.store.log
        self.promised: Ballot = Ballot.ZERO
        self.max_round_seen = -1

        # ----- volatile state -----
        self.executed = ExecutedTable()
        self.applied: InstanceId = 0
        self.role = ReplicaRole.FOLLOWER
        self.ballot: Ballot | None = None       # my ballot while elected
        self.view_leader: ProcessId | None = None
        self._locally_executed: set[InstanceId] = set()
        self._pending_write_rids: set[RequestId] = set()
        #: The latest totally ordered request per client that arrived while
        #: not LEADING, served once recovery completes (clients send every
        #: request to all replicas, §4).
        self._held: dict[ProcessId, ClientRequest] = {}
        self._catching_up = False

        self.locks = LockManager()
        self.proposer = SequentialProposer(self, max_batch=config.max_batch)
        self.reads = ReadCoordinator(self)
        self.txns = TxnManager(self)
        self.recovery = RecoveryCoordinator(self)

        #: Bound handlers resolved once from :data:`DISPATCH` (the table
        #: stays declarative for the analyzer; dispatch stays one dict hit).
        self._dispatch: dict[type, Callable[[ProcessId, Any], None]] = {
            msg_type: getattr(self, name) for msg_type, name in self.DISPATCH.items()
        }

        #: The ``req.<kind>`` counter per request kind, on first use.
        self._request_counters: dict[RequestKind, Any] = {}

        #: Observability scope, used as given: whoever builds the group
        #: names it (a host scopes ``proc.<pid>.g<group>.*``). Phase-latency
        #: bookkeeping below is only populated while metrics are enabled, so
        #: disabled runs allocate nothing.
        self.metrics = obs.metrics
        self._accepted_at: dict[InstanceId, float] = {}
        self._chosen_at: dict[InstanceId, float] = {}
        self._takeover_started: float | None = None

        #: Causal tracer. Protocol code opens spans at semantic points
        #: (execute, accept rounds, recovery); the world's envelope layer
        #: handles propagation.
        self.tracer = obs.tracer
        #: Open leader-takeover span (its own trace; recovery nests under it).
        self.takeover_span: Span | None = None

    # ======================================================== process events
    def on_start(self) -> None:
        self.elector.on_start()

    def on_crash(self) -> None:
        self.tracer.end(self.takeover_span, status="crashed")
        self.takeover_span = None
        self.store.crash()
        self.elector.on_crash()

    def on_recover(self) -> None:
        """Rebuild volatile state by replaying stable storage (§3.1:
        recovered processes execute the protocol correctly). Fail-stops
        when replay refuses the device: rejoining after forgetting a
        promise or acceptance would be Byzantine, not crash-faulty."""
        tracer = self.tracer
        span: Span | None = None
        if tracer.enabled:
            span = tracer.start_trace(
                f"restart:{self.pid}", pid=self.pid, kind="restart",
                attrs={"crashes": self.store.device.crashes},
            )
        state = self.store.recover()
        if state is None:
            if tracer.enabled:
                tracer.end(span, status="failstop")
            self.alive = False
            return
        self.log = self.store.log
        self.promised = state.promised
        self.max_round_seen = state.max_round
        checkpoint_instance, service_snap, executed_snap = state.checkpoint
        self.service = self.service_factory()
        self.service.restore(service_snap)
        self.executed.restore(executed_snap)
        self.applied = checkpoint_instance
        self.role = ReplicaRole.FOLLOWER
        self.ballot = None
        self.view_leader = None
        self._locally_executed = set()
        self._pending_write_rids = set()
        self._held = {}
        self._catching_up = False
        self.locks = LockManager()
        self.proposer.reset()
        self.reads.reset()
        self.txns.reset()
        self.recovery.reset()
        self._accepted_at.clear()
        self._chosen_at.clear()
        self._takeover_started = None
        self.metrics.counter("recovers").inc()
        # Log entries above the checkpoint may be re-appliable already.
        self._apply_ready()
        if tracer.enabled:
            tracer.end(span)
        self.elector.on_recover()

    # ============================================================ message bus
    def on_message(self, src: ProcessId, msg: Any) -> None:
        if self.elector.on_message(src, msg):
            return
        handler = self._dispatch.get(type(msg))
        if handler is None:
            self.metrics.counter("unknown_messages").inc()
            return
        handler(src, msg)

    def _on_confirm(self, src: ProcessId, msg: Confirm) -> None:
        self.reads.on_confirm(src, msg)

    def _on_promise(self, src: ProcessId, msg: Promise) -> None:
        self.recovery.on_promise(src, msg)

    def _on_reply(self, src: ProcessId, msg: Reply) -> None:
        """Replicas never act on replies (clients broadcast requests)."""

    # ====================================================== client-side entry
    def _on_client_request(self, src: ProcessId, request: ClientRequest) -> None:
        kind = request.kind
        counter = self._request_counters.get(kind)
        if counter is None:
            # Every replica runs this for every request: the Enum property,
            # the name and the scope lookup are paid once per kind.
            counter = self._request_counters[kind] = self.metrics.counter(
                f"req.{kind.value}"
            )
        counter.inc()
        if kind is RequestKind.ORIGINAL:
            if self.role is ReplicaRole.LEADING:
                self._serve_original(src, request)
            return
        if kind is RequestKind.READ and self.config.xpaxos_reads:
            if self.role is ReplicaRole.LEADING:
                self.reads.begin(src, request)
            elif self.role is ReplicaRole.FOLLOWER:
                self.reads.confirm_for_backup(request)
            # While RECOVERING we hold reads implicitly: the client will
            # retransmit; we must not answer before learning all committed
            # writes (§3.4 consistency requirement).
            return
        if kind in (RequestKind.WRITE, RequestKind.READ):
            # READ lands here only with xpaxos_reads=False: totally ordered.
            if self.role is ReplicaRole.LEADING:
                self._submit_write(src, request)
                return
            # A follower, or a leader still recovering, holds the client's
            # latest request for recovery_complete: one takeover path.
            rid = request.rid
            held = self._held.get(rid.client)
            if held is None or held.rid.seq < rid.seq:
                self._held[rid.client] = request
            return
        if kind.is_transactional:
            if self.role is ReplicaRole.LEADING:
                self.txns.on_request(src, request)
            return
        raise AssertionError(f"unhandled request kind {kind}")

    def _serve_original(self, src: ProcessId, request: ClientRequest) -> None:
        """The unreplicated baseline: execute + reply once E has elapsed
        (one timer per request, as an X-Paxos read), no coordination."""
        execute_time = self.config.execute_time
        if execute_time == 0:
            self._reply_original(src, request, None)
            return
        # Executions x E is the leader's modeled execute time
        # (repro.cluster.metrics.sim_cpu_frames).
        self.metrics.counter("executions").inc()
        tracer = self.tracer
        span: Span | None = None
        if tracer.enabled:
            span = tracer.start_span(
                "execute", pid=self.pid, kind="execute", attrs={"rid": str(request.rid)}
            )
        token = tracer.activate(span)
        try:
            self.set_timer(execute_time, self._reply_original, src, request, span)
        finally:
            tracer.restore(token)

    def _reply_original(
        self, src: ProcessId, request: ClientRequest, span: Span | None
    ) -> None:
        self.tracer.end(span)
        try:
            result = self.service.execute(request.op, self.execution_context())
        except ServiceError as exc:
            self.reply(src, request.rid, ReplyStatus.ERROR, str(exc))
            return
        except Exception as exc:  # malformed op: reject, never crash the replica
            self.reply(src, request.rid, ReplyStatus.ERROR, f"bad request: {exc}")
            return
        self.reply(src, request.rid, ReplyStatus.OK, result.reply)

    def _submit_write(self, src: ProcessId, request: ClientRequest) -> None:
        rid = request.rid
        verdict, cached = self.executed.verdict(rid)
        if verdict is NEW:
            if rid not in self._pending_write_rids:  # else an in-flight retransmit
                self._pending_write_rids.add(rid)
                self.proposer.submit(_WriteItem(self, src, request))
        elif verdict is DUPLICATE:
            self.reply(src, rid, ReplyStatus.OK, cached)
        # STALE: dropped unanswered, its closed-loop client has moved on.

    # ================================================= acceptor role (§3.2/3)
    def _on_prepare(self, src: ProcessId, msg: Prepare) -> None:
        self.observe_round(msg.ballot.round)
        if msg.ballot < self.promised:
            self.send(src, Nack(rejected=None, promised=self.promised))
            return
        self._set_promised(msg.ballot)
        if self.role is not ReplicaRole.FOLLOWER and (
            self.ballot is None or msg.ballot > self.ballot
        ):
            # Promising a higher ballot supersedes our own leadership.
            # Keeping the proposer running would self-accept values at the
            # old ballot *after* promising them away — the new leader's
            # prepare quorum then misses them and may choose differently.
            self.on_preempted(msg.ballot)
        reply = Promise(
            ballot=msg.ballot,
            entries=self.log.promise_entries(msg.gaps, msg.from_instance),
            chosen_frontier=self.log.frontier,
            latest=self.latest_state_for_promise(),
        )
        if self.store.needs_barrier:
            # The promise must be on stable storage before it is visible:
            # a crash after sending but before syncing would let us later
            # accept a lower ballot we promised away.
            self.store.flush(lambda: self.send(src, reply))
        else:
            self.send(src, reply)

    def _on_accept_batch(self, src: ProcessId, msg: AcceptBatch) -> None:
        """Accept a batch of consecutive instances atomically (steady-state
        pipeline rounds and recovery's closing message look the same)."""
        self.observe_round(msg.ballot.round)
        if msg.ballot < self.promised:
            self.send(src, Nack(rejected=None, promised=self.promised))
            return
        self._set_promised(msg.ballot)
        if msg.snapshot is not None and msg.snapshot_instance > self.applied:
            self.install_snapshot(msg.snapshot_instance, msg.snapshot)
        # The clock stands still inside one event: read it once, not per entry.
        now = self.now if self.metrics.enabled else None
        for instance, value in msg.entries:
            self.store.accept(ProposalNumber(msg.ballot, instance), value)
            if now is not None:
                self._accepted_at.setdefault(instance, now)
        ack = AcceptedBatch(
            ballot=msg.ballot, instances=tuple(i for i, _ in msg.entries)
        )
        if self.store.needs_barrier:
            # The leader counts this ack toward its quorum: the accepted
            # proposals must survive our crash before we send it.
            self.store.flush(lambda: self.send(src, ack))
        else:
            self.send(src, ack)

    def _on_accepted_batch(self, src: ProcessId, msg: AcceptedBatch) -> None:
        # At most one accept round is in flight: recovery's closing round
        # while RECOVERING, a pipeline round while LEADING, none otherwise.
        round_ = self.recovery.inflight or self.proposer.inflight
        if (
            round_ is not None
            and msg.ballot == round_.ballot  # else: an earlier leadership's ack
            and set(round_.instances).issubset(msg.instances)  # else: an earlier batch's
        ):
            round_.vote(src)

    def _on_chosen_batch(self, src: ProcessId, msg: ChosenBatch) -> None:
        self.observe_round(msg.ballot.round)
        for instance, value in msg.items:
            self.choose(instance, value, msg.ballot)
        self._maybe_catch_up(src)

    def _on_nack(self, src: ProcessId, msg: Nack) -> None:
        self.observe_round(msg.promised.round)
        if self.role is ReplicaRole.FOLLOWER or self.ballot is None:
            return
        if msg.promised > self.ballot:
            self.on_preempted(msg.promised)

    def _set_promised(self, ballot: Ballot) -> None:
        if ballot > self.promised:
            self.promised = ballot
            self.store.record_promise(ballot)

    def promise_locally(self, ballot: Ballot) -> None:
        """The leader promises to its own ballot (it is its own acceptor)."""
        self.observe_round(ballot.round)
        self._set_promised(ballot)

    def accept_locally(self, pn: ProposalNumber, value: Proposal) -> None:
        self._set_promised(pn.ballot)
        self.store.accept(pn, value)

    def observe_round(self, round_: int) -> None:
        """Track the highest ballot round ever seen (stable), so a future
        leadership of ours always picks a fresh, higher ballot."""
        if round_ > self.max_round_seen:
            self.max_round_seen = round_
            self.store.record_round(round_)

    # =============================================== choosing & applying state
    def choose(self, instance: InstanceId, value: Proposal, ballot: Ballot) -> None:
        """Record a decision and apply any newly contiguous prefix."""
        if self.log.is_chosen(instance):
            self._apply_ready()
            return
        # A chosen value is also reported as accepted in future Promises
        # (any replica that knows a decision must make new leaders adopt it).
        # A backup that accepted this very ballot from the AcceptBatch holds
        # that entry and its WAL record already (same ballot and instance,
        # same value); an fsync covers a sequence prefix, so a durable
        # choose record implies the earlier accept record is durable too.
        accepted = self.log.accepted_entry(instance)
        if accepted is None or accepted.pn.ballot != ballot:
            self.store.accept(ProposalNumber(ballot, instance), value)
        self.store.choose(instance, value)
        if self.metrics.enabled:
            now = self.now
            accepted_at = self._accepted_at.pop(instance, None)
            if accepted_at is not None:
                self.metrics.histogram("phase.accept_chosen").observe(now - accepted_at)
            self._chosen_at[instance] = now
        self._apply_ready()

    def commit_batch_as_leader(
        self,
        ballot: Ballot,
        batch: list[tuple[ProposalNumber, Proposal, ProposalItem]],
    ) -> None:
        """Majority reached for a pipeline round: commit every instance in
        order, answer the clients, then inform backups."""
        now = self.now if self.metrics.enabled else None
        for pn, proposal, _item in batch:
            self._locally_executed.add(pn.instance)
            self.store.choose(pn.instance, proposal)
            if now is not None:
                self._chosen_at[pn.instance] = now
        self._apply_ready()
        # Reply before the Chosen broadcast: the client's RRT is
        # 2M + E + 2m; informing the backups happens off the critical path.
        # Each reply re-enters its request's own trace context so batched
        # requests don't all land in the first request's trace.
        tracer = self.tracer
        for pn, proposal, item in batch:
            token = tracer.activate_for(item.ctx)
            try:
                item.on_committed(proposal, pn.instance)
            finally:
                tracer.restore(token)
        if self.others:
            items = tuple((pn.instance, proposal) for pn, proposal, _item in batch)
            self.broadcast(self.others, ChosenBatch(items=items, ballot=ballot))
        self.metrics.counter("commits").inc(len(batch))

    def _apply_ready(self) -> None:
        """Apply chosen proposals in instance order up to the frontier."""
        applied_before = self.applied
        log = self.log
        metrics = self.metrics
        now: float | None = None  # read at most once per event
        while self.applied < log.frontier:
            next_instance = self.applied + 1
            value = log.chosen_value(next_instance)
            if value is None:
                break  # compacted under us (snapshot already covered it)
            if next_instance in self._locally_executed:
                # The leader executed this request already; its service copy
                # is ahead, not behind.
                self._locally_executed.discard(next_instance)
            else:
                self._apply_proposal(value)
            self.executed.record(value.primary_rid, value.reply)
            self.applied = next_instance
            if metrics.enabled:
                chosen_at = self._chosen_at.pop(next_instance, None)
                if chosen_at is not None:
                    if now is None:
                        now = self.now
                    metrics.histogram("phase.chosen_applied").observe(now - chosen_at)
        if self.tracer.enabled and self.applied > applied_before:
            self.tracer.instant(
                "apply", pid=self.pid, kind="apply",
                attrs={"through": self.applied,
                       "count": self.applied - applied_before},
            )
        self._maybe_checkpoint()

    def _apply_proposal(self, value: Proposal) -> None:
        """Apply one chosen proposal's effects to this replica's service."""
        if value.payload.mode is StateTransferMode.SMR:
            # Multi-Paxos baseline: re-execute the request locally. Each
            # replica draws from its *own* nondeterminism sources — for a
            # deterministic service this is classic SMR; for a
            # nondeterministic one the replicas diverge (the paper's
            # motivating failure).
            for op in value.ops():
                if op is None:
                    continue
                self.metrics.counter("smr.reexecutions").inc()
                try:
                    self.service.execute(op, self.execution_context())
                except ServiceError:
                    pass  # the leader's reply already reported the failure
        else:
            apply_payload(value.payload, self.service, value.ops())

    def _maybe_checkpoint(self) -> None:
        checkpoint_instance = self.store.checkpoint[0]
        if self.applied - checkpoint_instance < self.config.checkpoint_interval:
            return
        self.store.write_checkpoint(self.applied)

    def install_snapshot(self, instance: InstanceId, snapshot: tuple[Any, ...]) -> None:
        """Adopt a (service, executed-table[, rid-fold]) snapshot at
        ``instance`` (catch-up / recovery state transfer)."""
        service_snap, executed_snap = snapshot[0], snapshot[1]
        self.service.restore(service_snap)
        self.executed.restore(executed_snap)
        self.applied = instance
        self._locally_executed = {i for i in self._locally_executed if i > instance}
        if self._accepted_at:
            self._accepted_at = {i: t for i, t in self._accepted_at.items() if i > instance}
        if self._chosen_at:
            self._chosen_at = {i: t for i, t in self._chosen_at.items() if i > instance}
        self.store.install_state(
            instance, self.service.snapshot(), dict(executed_snap), *snapshot[2:]
        )
        self._apply_ready()

    def latest_state_for_promise(self) -> tuple[InstanceId, Any] | None:
        """What a Promise reports as "the state of the latest proposal it
        knows": our materialized state at our applied frontier."""
        if self.applied == 0:
            return None
        return (self.applied, self.latest_state_payload())

    def latest_state_payload(self) -> tuple[Any, ...]:
        if self.config.track_commits:
            # Ship the chosen-request fold with the state so the
            # receiver's durable checkpoint keeps attributing survival of
            # acked requests (acked-durability invariant).
            return (
                self.service.snapshot(),
                self.executed.snapshot(),
                self.store.rid_fold(self.applied),
            )
        return (self.service.snapshot(), self.executed.snapshot())

    # =========================================================== catch-up path
    def _broadcast_frontier(self) -> None:
        """Leader anti-entropy: periodically advertise the applied frontier
        so replicas that recover or heal after traffic stopped still learn
        what they missed."""
        if self.role is not ReplicaRole.LEADING or self.ballot is None:
            return
        # Detach from whatever span armed this timer: anti-entropy is
        # background traffic, not part of any request's causal chain.
        token = self.tracer.activate(None)
        try:
            if self.others:
                self.broadcast(
                    self.others, FrontierProbe(instance=self.applied, ballot=self.ballot)
                )
            self.set_timer(SYNC_INTERVAL, self._broadcast_frontier)
        finally:
            self.tracer.restore(token)

    def _on_frontier_probe(self, src: ProcessId, msg: FrontierProbe) -> None:
        self.observe_round(msg.ballot.round)
        if msg.instance > self.applied and not self._catching_up:
            self._catching_up = True
            self.send(src, CatchUpQuery(from_instance=self.applied))
            self.set_timer(self.config.accept_retry, self._clear_catch_up)

    def _maybe_catch_up(self, src: ProcessId) -> None:
        """If decisions arrived beyond a gap we cannot fill (we missed the
        Accepts), ask the sender for the missing prefix."""
        if self._catching_up:
            return
        if self.log.max_instance_chosen() > self.log.frontier:
            self._catching_up = True
            self.send(src, CatchUpQuery(from_instance=self.applied))
            self.set_timer(self.config.accept_retry, self._clear_catch_up)

    def _clear_catch_up(self) -> None:
        self._catching_up = False
        if self.log.max_instance_chosen() > self.log.frontier and self.view_leader:
            target = self.view_leader
            if target != self.pid:
                self._catching_up = True
                self.send(target, CatchUpQuery(from_instance=self.applied))
                self.set_timer(self.config.accept_retry, self._clear_catch_up)

    def _on_catch_up_query(self, src: ProcessId, msg: CatchUpQuery) -> None:
        if msg.from_instance < self.log.compacted_to:
            # The asked-for prefix is gone; ship our checkpoint instead.
            checkpoint_instance, service_snap, executed_snap = self.store.checkpoint
            if self.config.track_commits:
                snapshot: tuple[Any, ...] = (
                    service_snap, executed_snap, self.store.checkpoint_rids
                )
            else:
                snapshot = (service_snap, executed_snap)
            self.send(
                src,
                CatchUpInfo(
                    items=tuple(self.log.chosen_above(checkpoint_instance)),
                    snapshot_instance=checkpoint_instance,
                    snapshot=snapshot,
                ),
            )
            return
        self.send(src, CatchUpInfo(items=tuple(self.log.chosen_above(msg.from_instance))))

    def _on_catch_up_info(self, src: ProcessId, msg: CatchUpInfo) -> None:
        self._catching_up = False
        if msg.snapshot is not None and msg.snapshot_instance > self.applied:
            self.install_snapshot(msg.snapshot_instance, msg.snapshot)
        for instance, value in msg.items:
            if not self.log.is_chosen(instance):
                self.log.choose(instance, value)
        self._apply_ready()

    # ======================================================= leadership events
    def leader_changed(self, new_leader: ProcessId | None) -> None:
        """Elector callback: this replica's view of the leader changed."""
        self.view_leader = new_leader
        if new_leader == self.pid:
            if self.role is ReplicaRole.FOLLOWER:
                self._become_leader()
        else:
            if self.role is not ReplicaRole.FOLLOWER:
                self._step_down()

    def _become_leader(self) -> None:
        self.metrics.counter("leader.elected").inc()
        self._takeover_started = self.now
        round_ = self.max_round_seen + 1
        self.observe_round(round_)
        self.ballot = Ballot(round_, self.pid)
        self.role = ReplicaRole.RECOVERING
        if self.tracer.enabled:
            self.takeover_span = self.tracer.start_trace(
                f"takeover:{self.pid}", pid=self.pid, kind="takeover",
                attrs={"round": round_},
            )
        self.recovery.start(self.ballot)

    def _step_down(self) -> None:
        self.metrics.counter("leader.stepdowns").inc()
        self._takeover_started = None
        self.tracer.end(self.takeover_span, status="stepped_down")
        self.takeover_span = None
        self.role = ReplicaRole.FOLLOWER
        self.ballot = None
        self.recovery.cancel()
        self.proposer.stop()
        self.txns.drop_all()
        self.reads.clear()
        self.locks.clear()
        self._pending_write_rids.clear()
        # Our service copy may be ahead by an abandoned round's writes and
        # commits. Rebuild it from the committed prefix so follower state
        # stays exactly the replicated state.
        self._rebuild_service_to_applied()

    def _rebuild_service_to_applied(self) -> None:
        """Reset the service (and dedup table) to the state at ``applied``
        by replaying the chosen log from the latest stable checkpoint."""
        checkpoint_instance, service_snap, executed_snap = self.store.checkpoint
        self.service = self.service_factory()
        self.service.restore(service_snap)
        self.executed.restore(executed_snap)
        current = checkpoint_instance
        while current < self.applied:
            current += 1
            value = self.log.chosen_value(current)
            assert value is not None, f"chosen log missing instance {current}"
            self._apply_proposal(value)
            self.executed.record(value.primary_rid, value.reply)
        self._locally_executed.clear()

    def on_preempted(self, higher: Ballot) -> None:
        """A Nack told us someone runs a higher ballot. If the elector still
        believes in us, retry with a fresh ballot; otherwise step down."""
        self.observe_round(higher.round)
        if self.role is ReplicaRole.FOLLOWER:
            return
        self.metrics.counter("leader.preempted").inc()
        self._step_down()
        if self.elector.current_leader() == self.pid:
            # Back off one retry interval before contending again.
            self.set_timer(self.config.prepare_retry, self._retry_leadership)

    def _retry_leadership(self) -> None:
        if self.role is ReplicaRole.FOLLOWER and self.elector.current_leader() == self.pid:
            self._become_leader()

    def recovery_complete(self, next_instance: InstanceId) -> None:
        """Recovery finished: start serving."""
        if self.role is not ReplicaRole.RECOVERING:
            return
        self.role = ReplicaRole.LEADING
        if self._takeover_started is not None:
            # Downtime this replica imposed on the cluster while taking over:
            # election callback -> ready to serve (§3.6's switch cost).
            self.metrics.histogram("leader.switch_downtime").observe(
                self.now - self._takeover_started
            )
            self._takeover_started = None
        self.tracer.end(self.takeover_span)
        self.takeover_span = None
        # Serve what the clients already sent us. Only now are the recovered
        # instances applied, so the executed table's verdict on each held
        # request is final.
        held, self._held = self._held, {}
        for client, request in held.items():
            self._submit_write(client, request)
        self.proposer.begin(next_instance)
        # Arm anti-entropy outside any request/recovery context.
        token = self.tracer.activate(None)
        try:
            self.set_timer(SYNC_INTERVAL, self._broadcast_frontier)
        finally:
            self.tracer.restore(token)

    @property
    def is_active_or_recovering_leader(self) -> bool:
        return self.role in (ReplicaRole.LEADING, ReplicaRole.RECOVERING)

    @property
    def is_leading(self) -> bool:
        return self.role is ReplicaRole.LEADING

    # ================================================================ helpers
    def invariant_snapshot(self) -> dict[str, Any]:
        """Read-only view of this replica's decided/applied state for the
        chaos invariant layer (:mod:`repro.chaos.invariants`). Never mutates
        anything; safe to call on crashed replicas (their stable log and the
        last materialized service state survive the crash)."""
        snapshot: dict[str, Any] = {
            "pid": self.pid,
            "group": self.group,
            "alive": self.alive,
            "role": self.role.value,
            "applied": self.applied,
            "frontier": self.log.frontier,
            "compacted_to": self.log.compacted_to,
            "checkpoint_instance": self.store.checkpoint[0],
            "chosen": self.log.chosen_items(),
            "storage_intact": self.store.pump.intact,
        }
        if self.proposer.inflight is None:
            # With a round in flight the service copy is ahead of
            # ``applied`` by that round's writes: no committed state to show.
            snapshot["fingerprint"] = self.service.state_fingerprint()
        if self.config.track_commits:  # only acked durability reads it
            snapshot["durable_rids"] = self.store.durable_rids()
        return snapshot

    def payload(self, results: tuple[ExecutionResult, ...]) -> StatePayload:
        """The state half of the proposal the pipeline is building now."""
        return build_payload(self.config.state_mode, self.service, results)

    def execution_context(self, txn: str | None = None) -> ExecutionContext:
        return ExecutionContext(rng=self.rng, now=self.now, txn=txn)

    def execute_read(self, request: ClientRequest) -> Any:
        """Execute a read-only request against the service copy, which is
        chosen state whenever no accept round is in flight (the X-Paxos
        coordinator only calls this then)."""
        result = self.service.execute(request.op, self.execution_context())
        return result.reply

    def reply(self, dst: ProcessId, rid: RequestId, status: ReplyStatus, value: Any) -> None:
        self.send(dst, Reply(rid=rid, status=status, value=value, leader=self.pid))

    def reply_for_recovered(self, proposal: Proposal) -> None:
        """Answer the client of a proposal finished during recovery (it is
        most likely retransmitting to us right now)."""
        rid = proposal.primary_rid
        self.reply(rid.client, rid, ReplyStatus.OK, proposal.reply)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f"{self.pid}" if self.group == 0 else f"{self.pid}/g{self.group}"
        return (
            f"<{type(self).__name__} {tag} {self.role.value} "
            f"applied={self.applied} frontier={self.log.frontier}>"
        )
