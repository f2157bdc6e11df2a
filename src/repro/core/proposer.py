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
from dataclasses import dataclass
from functools import partial
from typing import Any, TYPE_CHECKING

from repro.core.ballot import ProposalNumber
from repro.core.messages import AcceptBatch, Proposal
from repro.core.round import QuorumRound
from repro.types import InstanceId

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

    prepare: Callable[[], Any]
    on_committed: Callable[[Proposal, InstanceId], None]
    #: Causal-tracing context: the span this item's request originated in
    #: (its ClientRequest delivery, or its execute span once E has been
    #: modeled). Committed replies re-enter this context so a batched
    #: request's reply joins *its own* trace, not its batch-mates'.
    ctx: Any = None


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
        self.replica.commit_batch_as_leader(round_.ballot, batch)
        self._pump()
