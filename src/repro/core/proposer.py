"""The leader's sequential proposal pipeline (§3.3), with batching.

"The leader never tries to propose more than one proposal simultaneously.
Although it can start executing the ith request, it will not propose the
ith request and the corresponding state until the (i−1)th commits.
Otherwise ... the leader generates a gap in the sequence of chosen
proposals" — which would make the shipped states inconsistent.

The pipeline therefore holds at most **one in-flight accept round** at a
time. Within a round, every request that queued up while the previous
round was in flight is executed in order and proposed as a batch of
consecutive instances carried by a single
:class:`repro.core.messages.AcceptBatch` — the paper's own recovery
pattern ("one single message" for instances 88, 89 and 91) applied to the
steady state. Per-acceptor atomic handling of the batch preserves the
no-gaps invariant; see the AcceptBatch docstring.

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
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.core.ballot import Ballot, ProposalNumber
from repro.core.messages import AcceptBatch, AcceptedBatch, Proposal
from repro.types import InstanceId, ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.group import ReplicationGroup

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
    callables and ``ctx`` will do: a transaction commit is this record of
    two closures, a plain write is one slotted object with two methods
    (``repro.core.group``).
    """

    label: str
    prepare: Callable[[], Any]
    on_committed: Callable[[Proposal, InstanceId], None]
    #: Causal-tracing context: the span this item's request originated in
    #: (its ClientRequest delivery, or its execute span once E has been
    #: modeled). Committed replies re-enter this context so a batched
    #: request's reply joins *its own* trace, not its batch-mates'.
    ctx: Any = None


@dataclass(slots=True)
class _InFlight:
    ballot: Ballot
    batch: list[tuple[ProposalNumber, Proposal, ProposalItem]]
    instances: tuple[InstanceId, ...]
    acks: set[ProcessId] = field(default_factory=set)
    timer: Any = None
    #: Virtual time the accept round left the leader (phase-latency metric).
    proposed_at: float = 0.0
    #: Causal-tracing span covering propose -> majority of Accepteds.
    span: Any = None

    def message(self) -> AcceptBatch:
        return AcceptBatch(
            ballot=self.ballot,
            entries=tuple((pn.instance, proposal) for pn, proposal, _item in self.batch),
        )


class SequentialProposer:
    """At most one accept round in flight; strictly increasing instances."""

    def __init__(self, replica: "ReplicationGroup", max_batch: int = 8) -> None:
        self.replica = replica
        self.max_batch = max_batch
        self.queue: deque[ProposalItem] = deque()
        self.inflight: _InFlight | None = None
        self.next_instance: InstanceId = 1
        self.active = False
        self._paused = False
        #: Instances committed through this proposer (stats).
        self.committed = 0
        #: Accept rounds sent (stats; committed/rounds = mean batch size).
        self.rounds = 0

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
        if self.inflight is not None:
            if self.inflight.timer is not None:
                self.inflight.timer.cancel()
            self.replica.tracer.end(self.inflight.span, status="abandoned")
        self.inflight = None
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
        inflight = len(self.inflight.batch) if self.inflight is not None else 0
        return len(self.queue) + inflight

    # --------------------------------------------------------------- pumping
    def _pump(self) -> None:
        profiler = self.replica.profiler
        if profiler.enabled:
            profiler.enter("propose")
        try:
            self._pump_inner()
        finally:
            if profiler.enabled:
                profiler.exit()

    def _pump_inner(self) -> None:
        replica = self.replica
        if not self.active or self._paused or self.inflight is not None:
            return
        batch: list[tuple[ProposalNumber, Proposal, ProposalItem]] = []
        while self.queue and len(batch) < self.max_batch and not self._paused:
            item = self.queue.popleft()
            outcome = item.prepare()
            if outcome is SKIP or outcome is DEFER:
                continue
            assert isinstance(outcome, Proposal), f"prepare returned {outcome!r}"
            assert replica.ballot is not None
            instance = self.next_instance
            self.next_instance += 1
            pn = ProposalNumber(replica.ballot, instance)
            # The leader is its own acceptor: accept locally, count itself.
            replica.accept_locally(pn, outcome)
            batch.append((pn, outcome, item))
        if not batch:
            return
        assert replica.ballot is not None
        barrier = replica.store.needs_barrier
        flight = _InFlight(
            ballot=replica.ballot,
            batch=batch,
            instances=tuple(pn.instance for pn, _p, _i in batch),
            # The leader is an acceptor too: with a real fsync model its
            # own acceptance only counts toward the quorum once durable.
            acks=set() if barrier else {replica.pid},
            proposed_at=replica.now,
        )
        self.inflight = flight
        self.rounds += 1
        metrics = replica.metrics
        if metrics.enabled:
            metrics.counter("proposer.rounds").inc()
            metrics.counter("proposer.batched_instances").inc(len(batch))
        tracer = replica.tracer
        if tracer.enabled:
            # The round rides the first batched request's trace: that request
            # has waited longest, so the round is on *its* critical path.
            flight.span = tracer.start_span(
                "accept_round",
                pid=replica.pid,
                kind="round",
                parent=batch[0][2].ctx if batch[0][2].ctx is not None else tracer.current,
                attrs={"instances": list(flight.instances), "batch": len(batch)},
            )
        others = replica.others
        if others:
            token = tracer.activate(flight.span)
            try:
                replica.broadcast(others, flight.message())
                flight.timer = replica.set_timer(
                    replica.config.accept_retry, self._retransmit, flight.instances
                )
            finally:
                tracer.restore(token)
        if barrier:
            replica.store.flush(lambda: self._ack_durable(flight))
        self._check_majority()

    def _ack_durable(self, flight: _InFlight) -> None:
        """The leader's own accepted batch hit stable storage."""
        if self.inflight is not flight:
            return  # already committed on backup acks, or abandoned
        flight.acks.add(self.replica.pid)
        self._check_majority()

    # ------------------------------------------------------------- responses
    def on_accepted(self, src: ProcessId, msg: AcceptedBatch) -> None:
        flight = self.inflight
        if flight is None or msg.ballot != flight.ballot:
            return  # stale ack from an earlier round or previous leadership
        if not set(flight.instances).issubset(msg.instances):
            return  # ack for a previous batch
        flight.acks.add(src)
        self._check_majority()

    def _check_majority(self) -> None:
        flight = self.inflight
        if flight is None or len(flight.acks) < self.replica.config.majority:
            return
        if flight.timer is not None:
            flight.timer.cancel()
        self.inflight = None
        self.committed += len(flight.batch)
        self.replica.tracer.end(flight.span)  # quorum reached
        metrics = self.replica.metrics
        if metrics.enabled:
            # Majority of Accepteds in hand: the propose->accepted phase of
            # every instance in the round ends here (2m on a quiet LAN).
            metrics.histogram("phase.propose_accepted").observe(
                self.replica.now - flight.proposed_at
            )
        self.replica.commit_batch_as_leader(flight.ballot, flight.batch)
        self._pump()

    def _retransmit(self, instances: tuple[InstanceId, ...]) -> None:
        """Resend the in-flight batch to laggards ("if the leader fails to
        receive the expected response ... it retransmits")."""
        flight = self.inflight
        if flight is None or flight.instances != instances or not self.active:
            return
        replica = self.replica
        laggards = tuple(p for p in replica.others if p not in flight.acks)
        if laggards:
            replica.broadcast(laggards, flight.message())
        flight.timer = replica.set_timer(
            replica.config.accept_retry, self._retransmit, instances
        )
