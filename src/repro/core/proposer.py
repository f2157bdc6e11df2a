"""The leader's sequential proposal pipeline (§3.3), with batching.

"The leader never tries to propose more than one proposal simultaneously.
Although it can start executing the ith request, it will not propose the
ith request and the corresponding state until the (i−1)th commits.
Otherwise ... the leader generates a gap in the sequence of chosen
proposals" — which would make the shipped states inconsistent.

The pipeline therefore holds at most **one in-flight accept round** at a
time. Within a round, every request that queued up while the previous
round was in flight — or that was already delivered to the leader when
that round committed — is executed in order and proposed as a batch of
consecutive instances carried by a single
:class:`repro.core.messages.AcceptBatch` — the paper's own recovery
pattern ("one single message" for instances 88, 89 and 91) applied to the
steady state. Per-acceptor atomic handling of the batch preserves the
no-gaps invariant; see the AcceptBatch docstring.

A round starts once the leader has handled every message it already
received (:meth:`repro.sim.process.Env.idle_at`), or at once when
``max_batch`` items are queued: an event-loop server reads what is in its
socket before it acts. The round's ``AcceptBatch`` could not leave before
that receive work anyway, so the first wait costs nothing. Messages that
land during it may extend the wait, but only to twice the first, so a
leader whose CPU never drains still starts its rounds. On a real runtime
``idle_at`` is ``now``.

With ``fsync="sync"`` a round may also wait out the fsync its host's
:class:`~repro.storage.store.StoragePump` has in flight, while a client
the previous round answered has no request queued: that client's next
write then joins the round. The wait costs the leader's own vote nothing
— its barrier cannot be durable before that fsync ends plus one more —
and it ends with that fsync, before the follow-up fsync starts, so the
round's own append still rides the follow-up (or earlier, when the
client's write arrives; the same bound as above holds). A lone client
never waits: it is the one queued. An ``async`` store never has an fsync
in flight.

Queue items produce their proposal lazily (``prepare``): the leader
executes a request only when its turn comes, so the state attached to
instance *i* really is the state after executing requests 1..i.
``prepare`` may also:

* return :data:`SKIP` — the request was answered without consensus
  (service error, duplicate);
* return :data:`DEFER` — the item cannot run yet (waiting on locks, or on
  its modeled execution time): the pipeline moves on and the item re-enters
  via ``resubmit_front`` when ready. Reordering deferred items is safe —
  the sequence order *is* whatever order the leader proposes;
* call :meth:`SequentialProposer.pause` — the leader is busy executing
  (models E > 0); batch gathering stops to preserve execution order.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import Any, TYPE_CHECKING

from repro.core.ballot import ProposalNumber
from repro.core.messages import AcceptBatch, Proposal
from repro.core.round import QuorumRound
from repro.types import InstanceId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.group import ReplicationGroup
    from repro.sim.process import TimerHandle

#: Sentinel: the item resolved without needing a consensus instance.
SKIP = object()
#: Sentinel: the item is not ready; it will resubmit itself.
DEFER = object()


@dataclass(slots=True)
class ProposalItem:
    """One unit of work for the pipeline.

    * ``prepare()`` — execute/build; returns a :class:`Proposal`, ``SKIP``
      or ``DEFER``.
    * ``on_committed(proposal, instance)`` — called once the proposal is
      chosen; replies to the client and releases resources.

    The pipeline asks nothing else of an item, so any object with these two
    callables, ``ctx`` and ``src`` will do: a transaction commit is this
    record of two closures, a plain write is one slotted object with two
    methods (``repro.core.group``).
    """

    prepare: Callable[[], Any]
    on_committed: Callable[[Proposal, InstanceId], None]
    #: Causal-tracing context: the span this item's request originated in
    #: (its ClientRequest delivery, or its execute span once E has been
    #: modeled). Committed replies re-enter this context so a batched
    #: request's reply joins *its own* trace, not its batch-mates'.
    ctx: Any = None
    #: The client the item answers: a round may wait for a client the
    #: previous one answered to write again (``SequentialProposer._pump``).
    src: Any = None


class SequentialProposer:
    """At most one accept round in flight; strictly increasing instances."""

    def __init__(self, replica: "ReplicationGroup", max_batch: int = 8) -> None:
        self.replica = replica
        self.max_batch = max_batch
        self.queue: deque[ProposalItem] = deque()
        #: The accept round in flight (``instances`` is its batch's), if any.
        self.inflight: QuorumRound | None = None
        #: Causal-tracing span of the latest round: propose -> majority of
        #: Accepteds (or ``abandoned``).
        self._span: Any = None
        self.next_instance: InstanceId = 1
        self.active = False
        self._paused = False
        #: Timer (or fsync-end hook) that starts the next round once the
        #: leader has handled what it already received or its host's fsync
        #: has ended (see ``_pump``), when it fires, and the time by which
        #: that round starts however busy the leader stays (``None``: the
        #: next round has not waited).
        self._hold: TimerHandle | None = None
        self._hold_at = 0.0
        self._deadline: float | None = None
        #: The clients the latest committed round answered, and the host's
        #: durable substrate, whose in-flight fsync a round may wait out
        #: for them.
        self._answered: tuple[Any, ...] = ()
        self._storage = replica.store.pump

    # ------------------------------------------------------------- lifecycle
    def begin(self, next_instance: InstanceId) -> None:
        """Activate the pipeline (leadership established, recovery done)."""
        self.active = True
        self.next_instance = next_instance
        self._pump()

    def stop(self) -> None:
        """Deactivate (step-down or crash). Queued and in-flight items are
        dropped — clients retransmit and the new leader's recovery decides
        the fate of anything already accepted somewhere."""
        self.active = False
        self._paused = False
        if self._hold is not None:
            self._hold.cancel()
            self._hold = None
        self._deadline = None
        self._answered = ()
        if self.inflight is not None:
            self.inflight.close()
            self.inflight = None
            self.replica.tracer.end(self._span, status="abandoned")
        self.queue.clear()

    def reset(self) -> None:
        self.stop()
        self.next_instance = 1

    # -------------------------------------------------------------- queueing
    def submit(self, item: ProposalItem) -> None:
        self.queue.append(item)
        self._pump()

    def resubmit_front(self, item: ProposalItem) -> None:
        """Re-enter a previously deferred item at the head of the queue."""
        self.queue.appendleft(item)
        self._pump()

    def pause(self) -> None:
        """Stop gathering (leader busy executing a request, E > 0). Must be
        matched by :meth:`resume`."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._pump()

    @property
    def depth(self) -> int:
        inflight = len(self.inflight.instances) if self.inflight is not None else 0
        return len(self.queue) + inflight

    # --------------------------------------------------------------- pumping
    def _pump(self) -> None:
        replica = self.replica
        queue = self.queue
        if not self.active or self._paused or self.inflight is not None or not queue:
            return
        # Read what is in the socket, then act: requests already delivered
        # but still in the leader's receive queue join this round instead
        # of waiting a whole round for the next (module docstring). The
        # first wait is free, since the round's AcceptBatch could not leave
        # before it ends; later ones must end by twice the first, so a CPU
        # that never drains (overload) cannot hold a round for good. A
        # busy device may stretch the wait to its fsync's end (below).
        if len(queue) < self.max_batch:
            until = replica.env.idle_at()
            now = replica.now
            storage = self._storage
            ends_at = storage.fsync_ends_at
            at_fsync_end = False
            if ends_at is not None and ends_at > until and self._answered:
                # The host's device is busy: this round's own barrier cannot
                # be durable before ``ends_at`` plus one more fsync, so it
                # may wait until then for a client the last round answered.
                queued = {item.src for item in queue}
                if any(src not in queued for src in self._answered):
                    until = ends_at
                    at_fsync_end = True
            if until > now:
                hold = self._hold
                if hold is not None:
                    if self._hold_at <= until:
                        return
                    hold.cancel()  # the client came back: hold less
                    self._hold = None
                if self._deadline is None:
                    self._deadline = until + (until - now)
                if until <= self._deadline:
                    self._hold_at = until
                    self._hold = (
                        storage.at_fsync_end(self._release) if at_fsync_end
                        else replica.set_timer(until - now, self._release)
                    )
                    return
        if self._hold is not None:
            self._hold.cancel()
            self._hold = None
        held = self._deadline is not None
        self._deadline = None
        batch: list[tuple[ProposalNumber, Proposal, ProposalItem]] = []
        while queue and len(batch) < self.max_batch and not self._paused:
            item = queue.popleft()
            outcome = item.prepare()
            if outcome is SKIP or outcome is DEFER:
                continue
            assert isinstance(outcome, Proposal), f"prepare returned {outcome!r}"
            assert replica.ballot is not None
            instance = self.next_instance
            self.next_instance += 1
            pn = ProposalNumber(replica.ballot, instance)
            # The leader is its own acceptor: it accepts locally here and
            # votes for the round below.
            replica.accept_locally(pn, outcome)
            batch.append((pn, outcome, item))
        if not batch:
            return
        ballot = replica.ballot
        assert ballot is not None
        instances = tuple(pn.instance for pn, _p, _i in batch)
        round_ = self.inflight = QuorumRound(
            replica, ballot, replica.config.accept_retry,
            partial(self._on_majority, batch, replica.now), instances,
        )
        metrics = replica.metrics
        if metrics.enabled:
            metrics.counter("proposer.rounds").inc()
            metrics.counter("proposer.batched_instances").inc(len(batch))
            if held:
                metrics.counter("proposer.held_rounds").inc()
        tracer = replica.tracer
        if tracer.enabled:
            # The round rides the first batched request's trace: that request
            # has waited longest, so the round is on *its* critical path.
            self._span = tracer.start_span(
                "accept_round",
                pid=replica.pid,
                kind="round",
                parent=batch[0][2].ctx if batch[0][2].ctx is not None else tracer.current,
                attrs={"instances": list(instances), "batch": len(batch)},
            )
        others = replica.others
        if others:
            entries = tuple((pn.instance, proposal) for pn, proposal, _item in batch)
            token = tracer.activate(self._span)
            try:
                round_.broadcast(others, AcceptBatch(ballot=ballot, entries=entries))
            finally:
                tracer.restore(token)
        round_.vote_self()

    def _release(self) -> None:
        """The hold's timer fired: check the rule again (more may have
        arrived meanwhile)."""
        self._hold = None
        self._pump()

    def _on_majority(
        self,
        batch: list[tuple[ProposalNumber, Proposal, ProposalItem]],
        proposed_at: float,
        round_: QuorumRound,
    ) -> None:
        """A majority accepted the in-flight round: commit it, pump the next."""
        self.inflight = None
        self.replica.tracer.end(self._span)  # quorum reached
        metrics = self.replica.metrics
        if metrics.enabled:
            # Majority of Accepteds in hand: the propose->accepted phase of
            # every instance in the round ends here (2m on a quiet LAN).
            metrics.histogram("phase.propose_accepted").observe(
                self.replica.now - proposed_at
            )
        self._answered = tuple(item.src for _pn, _p, item in batch)
        self.replica.commit_batch_as_leader(round_.ballot, batch)
        # Reads that came due during the round see exactly its writes: the
        # next round has not executed anything yet.
        self.replica.reads.serve_waiting()
        self._pump()
