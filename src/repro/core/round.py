"""One quorum round: a leader's single exchange with its acceptors.

§3.3 gives a leader exactly one way of talking to its acceptors — it sends
"a single message to all the other replicas", never runs "more than one
proposal simultaneously", and "if the leader fails to receive the expected
response ... it retransmits" — and §3.2 ends every such exchange the same
way: at a majority. Three exchanges have that shape: the prepare round a new
leader opens, the accept round that closes its recovery
(:mod:`repro.core.recovery`), and every steady-state pipeline round
(:mod:`repro.core.proposer`). They differ in the message they carry, how
often they resend, and what a majority means; this class is the rest.

The rule the PR 8 safety bug lived in is written here once: the leader is
an acceptor too, and its own vote counts toward the quorum only once what
it voted for is durable (:meth:`QuorumRound.vote_self`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from repro.core.ballot import Ballot
from repro.types import InstanceId, ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.group import ReplicationGroup


class QuorumRound:
    """Collect one vote per process until ``config.majority`` have voted.

    ``ballot`` and ``instances`` say what the round is about, so whoever
    dispatches replies can tell a vote for this round from a stale one.
    ``on_majority(round)`` runs exactly once, with the round already
    closed; until then the owner's slot, the round and the bound callback
    form a cycle, which the owner breaks by clearing its slot first thing
    in the callback (and wherever it abandons the round).
    """

    __slots__ = ("group", "ballot", "instances", "retry", "on_majority",
                 "votes", "open", "_message", "_timer")

    def __init__(
        self,
        group: "ReplicationGroup",
        ballot: Ballot,
        retry: float,
        on_majority: Callable[["QuorumRound"], None],
        instances: tuple[InstanceId, ...] = (),
    ) -> None:
        self.group = group
        self.ballot = ballot
        self.instances = instances
        self.retry = retry
        self.on_majority = on_majority
        #: Voter -> its reply (``None`` where the vote is all there is). A
        #: repeated reply replaces the earlier one and counts once.
        self.votes: dict[ProcessId, Any] = {}
        self.open = True
        self._message: Any = None
        self._timer: Any = None

    def broadcast(self, dsts: Iterable[ProcessId], msg: Any) -> None:
        """Send ``msg`` now, and again every ``retry`` seconds to the peers
        that have not voted, until the round closes. The resend timer is
        armed in the caller's tracing context, like the send itself."""
        self._message = msg
        group = self.group
        group.broadcast(dsts, msg)
        self._timer = group.set_timer(self.retry, self._retransmit)

    def _retransmit(self) -> None:
        """Timer tick (the trace names it by this method's name): resend to
        the laggards."""
        if not self.open:
            return
        group = self.group
        laggards = tuple(p for p in group.others if p not in self.votes)
        if laggards:
            group.broadcast(laggards, self._message)
        self._timer = group.set_timer(self.retry, self._retransmit)

    def vote(self, src: ProcessId, reply: Any = None) -> None:
        """Count ``src``'s vote; a closed round counts nothing."""
        if not self.open:
            return
        self.votes[src] = reply
        if len(self.votes) >= self.group.config.majority:
            self.close()
            self.on_majority(self)

    def vote_self(self) -> None:
        """Cast the leader's own vote: at once when appends are durable as
        written, otherwise only when everything it appended for this round
        has reached stable storage."""
        group = self.group
        if group.store.needs_barrier:
            group.store.flush(lambda: self.vote(group.pid))
        else:
            self.vote(group.pid)

    def close(self) -> None:
        """Stop counting and resending (majority reached, or abandoned)."""
        self.open = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
