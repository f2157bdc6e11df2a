"""New-leader recovery (§3.3).

When a new leader emerges it "executes the prepare phase of instances 88,
89, and of all instances greater than 90" — i.e. the gaps in its chosen
sequence plus the whole open tail — "by sending a single message to all the
other replicas". Replicas answer with the accepted proposals they hold for
that range, shipping the service state only once ("the replicas are only
interested in the latest state"). The leader then "executes the accept
phases ... by sending one single message" carrying every re-proposed
request plus the latest state chosen and learned.

This module implements that exchange, plus the retransmission and
preemption (higher-ballot Nack) handling around it. The merge step relies
on a structural invariant of the basic protocol: because every leader
proposes instances strictly sequentially, any instance that has been
*accepted* anywhere implies all lower instances are *chosen* somewhere in
every majority — so the merged range can contain no unseeded holes. A hole
would mean state was lost; we raise :class:`repro.errors.ProtocolError`
rather than guessing.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from repro.core.ballot import Ballot, ProposalNumber
from repro.core.messages import (
    AcceptBatch,
    ChosenBatch,
    Prepare,
    Promise,
    PromiseEntry,
    Proposal,
)
from repro.core.round import QuorumRound
from repro.errors import ProtocolError
from repro.types import InstanceId, ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.group import ReplicationGroup


class RecoveryCoordinator:
    """Drives the prepare + accept rounds a new leader runs before serving."""

    def __init__(self, replica: "ReplicationGroup") -> None:
        self.replica = replica
        #: The prepare round, while it collects Promises.
        self._prepare: QuorumRound | None = None
        #: The closing accept round in flight, if any.
        self.inflight: QuorumRound | None = None
        self._started_at: float | None = None
        #: Causal-tracing span covering prepare -> merge -> closing accept.
        self._span: Any = None

    # --------------------------------------------------------------- prepare
    def start(self, ballot: Ballot) -> None:
        """Run the prepare phase for the log's gaps plus the open tail."""
        replica = self.replica
        self.cancel()
        self._started_at = replica.now
        tracer = replica.tracer
        if tracer.enabled:
            self._span = tracer.start_span(
                "recovery", pid=replica.pid, kind="recovery",
                parent=replica.takeover_span,
                attrs={"round": ballot.round, "leader": ballot.leader},
            )
        # Promise to ourselves first: the leader is also an acceptor.
        replica.promise_locally(ballot)
        log = replica.log
        gaps = log.gaps()
        from_instance = max(log.frontier, log.max_instance_chosen()) + 1
        round_ = self._prepare = QuorumRound(
            replica, ballot, replica.config.prepare_retry, self._merge_and_accept
        )

        def _promises_durable() -> None:
            # The self-promise (and the round record that makes a future
            # restart pick a *fresh* ballot) must be stable before the
            # Prepare becomes visible: replaying a truncated tail and
            # re-running round ``b`` could otherwise issue two different
            # accept rounds under one ballot.
            if not round_.open:
                return  # cancelled or superseded while the fsync ran
            others = replica.others
            if others:
                token = tracer.activate_for(self._span)
                try:
                    round_.broadcast(
                        others, Prepare(ballot=ballot, gaps=gaps, from_instance=from_instance)
                    )
                finally:
                    tracer.restore(token)
            # Our own answer to our own Prepare — cast only now that the
            # Prepare has left: it may be the vote that closes the round.
            round_.vote(
                replica.pid,
                Promise(
                    ballot=ballot,
                    entries=replica.log.promise_entries(gaps, from_instance),
                    chosen_frontier=replica.log.frontier,
                    latest=replica.latest_state_for_promise(),
                ),
            )

        if replica.store.needs_barrier:
            replica.store.flush(_promises_durable)
        else:
            _promises_durable()

    def on_promise(self, src: ProcessId, msg: Promise) -> None:
        round_ = self._prepare
        if round_ is not None and msg.ballot == round_.ballot:
            round_.vote(src, msg)

    # ----------------------------------------------------------------- merge
    def _merge_and_accept(self, round_: QuorumRound) -> None:
        """A majority promised (``round_.votes``: pid -> Promise)."""
        self._prepare = None
        replica = self.replica
        promises = round_.votes.values()

        # 1. Adopt the most advanced snapshot among the quorum (and self).
        best: tuple[InstanceId, Any] | None = None
        for promise in promises:
            if promise.latest is not None:
                if best is None or promise.latest[0] > best[0]:
                    best = promise.latest
        if best is not None and best[0] > replica.applied:
            replica.install_snapshot(best[0], best[1])
        base = replica.applied

        # 2. Merge accepted entries: highest proposal number wins per instance.
        merged: dict[InstanceId, PromiseEntry] = {}
        for promise in promises:
            for entry in promise.entries:
                instance = entry.pn.instance
                if instance <= base:
                    continue  # already covered by the adopted snapshot
                current = merged.get(instance)
                if current is None or entry.pn > current.pn:
                    merged[instance] = entry

        # 3. Instances the new leader already knows to be *chosen* are not
        #    re-reported by Promises (the Prepare only asked about gaps and
        #    the tail — the paper's example: 90 is known, 88/89/91 are not),
        #    yet they must be in the re-proposed batch so backups missing
        #    them catch up in the same single message. Re-proposing a
        #    decided value at a higher ballot is always safe, and the batch
        #    reaches the highest instance known chosen, so the pipeline
        #    never proposes over a decision (P2c).
        top = max([*merged, replica.log.max_instance_chosen()])
        if top > base:
            for instance in range(base + 1, top + 1):
                if instance not in merged:
                    known = replica.log.chosen_value(instance)
                    if known is not None:
                        merged[instance] = PromiseEntry(
                            pn=ProposalNumber(round_.ballot, instance), value=known
                        )

        # 4. The merged range must be contiguous above the adopted base
        #    (sequential proposing guarantees it — see module docstring).
        instances = sorted(merged)
        for offset, instance in enumerate(instances, start=1):
            if instance != base + offset:
                raise ProtocolError(
                    f"recovery found a hole: adopted base {base}, "
                    f"but learned instances {instances}"
                )

        if not instances:
            self._finish(round_.ballot, next_instance=base + 1)
            return

        # 5. Accept phase: one message with every re-proposed value plus the
        #    latest state, so lagging replicas catch up in one step.
        entries = tuple((i, merged[i].value) for i in instances)
        ballot = round_.ballot
        snapshot = replica.latest_state_payload()
        accept = self.inflight = QuorumRound(
            replica, ballot, replica.config.prepare_retry,
            partial(self._choose_recovered, entries), tuple(instances),
        )
        for instance, value in entries:
            replica.accept_locally(ProposalNumber(ballot, instance), value)
        others = replica.others
        if others:
            # Promises arrive inside *their own* message spans; re-enter the
            # recovery span so the closing accept round hangs under it.
            tracer = replica.tracer
            token = tracer.activate_for(self._span)
            try:
                accept.broadcast(
                    others,
                    AcceptBatch(ballot=ballot, entries=entries,
                                snapshot_instance=base, snapshot=snapshot),
                )
            finally:
                tracer.restore(token)
        accept.vote_self()

    # ---------------------------------------------------------- accept phase
    def _choose_recovered(
        self, entries: tuple[tuple[InstanceId, Proposal], ...], accept: QuorumRound
    ) -> None:
        """A majority accepted the closing round: every entry is chosen."""
        self.inflight = None
        replica = self.replica
        ballot = accept.ballot
        for instance, value in entries:
            replica.choose(instance, value, ballot)
        tracer = replica.tracer
        token = tracer.activate_for(self._span)
        try:
            others = replica.others
            if others:
                replica.broadcast(others, ChosenBatch(items=entries, ballot=ballot))
            # Proactively answer the clients whose requests we just finished
            # for the old leader (they are probably retransmitting by now).
            for _instance, value in entries:
                replica.reply_for_recovered(value)
        finally:
            tracer.restore(token)
        self._finish(ballot, next_instance=entries[-1][0] + 1)

    def _finish(self, ballot: Ballot, next_instance: InstanceId) -> None:
        metrics = self.replica.metrics
        if metrics.enabled:
            metrics.counter("recovery.completed").inc()
            if self._started_at is not None:
                # Prepare round + merge + closing accept round, end to end.
                metrics.histogram("recovery.duration").observe(
                    self.replica.now - self._started_at
                )
        self._started_at = None
        self.replica.tracer.end(self._span)
        self._span = None
        self.replica.recovery_complete(next_instance)

    # -------------------------------------------------------------- lifecycle
    def cancel(self) -> None:
        for round_ in (self._prepare, self.inflight):
            if round_ is not None:
                round_.close()
        self._prepare = None
        self.inflight = None
        if self._span is not None:
            self.replica.tracer.end(self._span, status="cancelled")
            self._span = None

    def reset(self) -> None:
        self.cancel()
