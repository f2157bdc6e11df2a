"""Wire messages of the replication protocols.

All messages are immutable dataclasses. The simulation passes them by
reference (processes must not mutate them); the TCP transport and the WAL's
byte form turn them into bytes through the plan
:func:`~repro.util.fastpickle.fast_pickle` compiles from each class's field
list, so the annotations here are the wire layout and every ``Any`` field
must hold something picklable.

Message flow in the common case (no failures, stable leader — Fig. 2):

* client --``ClientRequest``--> all replicas
* leader --``AcceptBatch``--> backups; backups --``AcceptedBatch``--> leader
* leader --``ChosenBatch``--> backups; leader --``Reply``--> client

X-Paxos read (Fig. 3): backups --``Confirm``--> leader (no Accept round).
T-Paxos (Fig. 4): only the commit triggers an Accept round.
New-leader recovery (§3.3): one ``Prepare`` covering gaps + the open tail;
``Promise`` answers carry accepted entries and the responder's latest
state; one ``RecoveryAccept`` closes everything learned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.ballot import Ballot, ProposalNumber
from repro.core.requests import ClientRequest, RequestId
from repro.core.state import StatePayload
from repro.sim.process import Envelope
from repro.util.fastpickle import KeepsWireSize, fast_pickle
from repro.types import GroupId, InstanceId, ProcessId, ReplyStatus


# ------------------------------------------------------------------ proposals
@fast_pickle
@dataclass(frozen=True, slots=True)
class Proposal(KeepsWireSize):
    """The value decided by one consensus instance: ``<req, state>`` (§3.3).

    ``requests`` has one element for an ordinary write and one element per
    operation (plus the commit) for a T-Paxos transaction. ``reply`` is the
    client-visible result, carried so any replica that learns the proposal
    can answer a retransmitted request after a leader switch.
    """

    requests: tuple[ClientRequest, ...]
    payload: StatePayload
    reply: Any = None

    @property
    def primary_rid(self) -> RequestId:
        """The request id the client is waiting on (the last in the bundle)."""
        return self.requests[-1].rid

    def ops(self) -> tuple[Any, ...]:
        """The service-level operation payloads, in execution order."""
        return tuple(r.op for r in self.requests)


# --------------------------------------------------------------- accept phase
@fast_pickle
@dataclass(frozen=True, slots=True)
class Nack:
    """Replica -> leader: your ballot is stale; I am promised to ``promised``."""

    rejected: ProposalNumber | None
    promised: Ballot


# -------------------------------------------------------------- prepare phase
@fast_pickle
@dataclass(frozen=True, slots=True)
class Prepare:
    """New leader -> all replicas (§3.3 recovery).

    One message covers the explicit ``gaps`` (instances the new leader does
    not know) **and** every instance >= ``from_instance``. Replicas answer
    with what they have accepted in that range.
    """

    ballot: Ballot
    gaps: tuple[InstanceId, ...]
    from_instance: InstanceId


@fast_pickle
@dataclass(frozen=True, slots=True)
class PromiseEntry:
    """One accepted proposal reported in a Promise."""

    pn: ProposalNumber
    value: Proposal


@fast_pickle
@dataclass(frozen=True, slots=True)
class Promise:
    """Replica -> new leader: promise + everything requested that I know.

    ``entries`` contains the responder's accepted proposals for the
    requested instances. Per §3.3 the responder ships the service state
    only once — ``latest`` is its materialized state at its chosen
    frontier (instance number + snapshot), or None if it has nothing the
    leader doesn't.
    """

    ballot: Ballot
    entries: tuple[PromiseEntry, ...]
    chosen_frontier: InstanceId
    latest: tuple[InstanceId, Any] | None


@fast_pickle
@dataclass(frozen=True, slots=True)
class AcceptBatch:
    """Leader -> all replicas: accept several *consecutive* instances in one
    message.

    This is the paper's recovery pattern ("executes the accept phases of
    instances 88, 89, and 91 by sending one single message") applied
    uniformly: the steady-state pipeline also proposes all requests that
    queued during the previous round as one batch of consecutive instances.
    Because each acceptor handles the batch atomically and every
    retransmission carries the same content, a majority that accepts
    instance *i* of a batch also accepted *i-1* — so batching preserves the
    no-gaps invariant that §3.3's one-at-a-time rule exists to protect,
    while letting throughput exceed 1/(2m).

    ``snapshot`` (recovery only) is the latest state chosen and learned, so
    lagging replicas catch up in one step; None in steady state.
    """

    ballot: Ballot
    entries: tuple[tuple[InstanceId, Proposal], ...]
    snapshot_instance: InstanceId = 0
    snapshot: Any = None


@fast_pickle
@dataclass(frozen=True, slots=True)
class AcceptedBatch:
    """Replica -> leader: acknowledges an AcceptBatch."""

    ballot: Ballot
    instances: tuple[InstanceId, ...]


@fast_pickle
@dataclass(frozen=True, slots=True)
class ChosenBatch:
    """Leader -> all replicas: several instances decided at once."""

    items: tuple[tuple[InstanceId, Proposal], ...]
    ballot: Ballot


# -------------------------------------------------------------------- X-Paxos
@fast_pickle
@dataclass(frozen=True, slots=True)
class Confirm:
    """Backup -> leader (X-Paxos, §3.4): you hold the highest ballot I have
    accepted; this confirms it for read ``rid``."""

    ballot: Ballot
    rid: RequestId


# -------------------------------------------------------------------- clients
@fast_pickle
@dataclass(frozen=True, slots=True)
class Reply:
    """Leader -> client."""

    rid: RequestId
    status: ReplyStatus
    value: Any = None
    leader: ProcessId | None = None


@fast_pickle
@dataclass(frozen=True, slots=True)
class StartSignal:
    """Leader -> clients: experiment start marker (§4: the leader sends a
    start signal to all clients simultaneously)."""

    run_id: str = ""


# --------------------------------------------------------------------- groups
@fast_pickle
@dataclass(frozen=True, slots=True)
class GroupEnvelope(Envelope):
    """Wire wrapper tagging a protocol message with its replication group.

    Every message between replica processes travels in one, at every
    ``groups`` value, so the receiving :class:`repro.shard.host.GroupHost`
    can hand it to the right hosted group. Replies to clients travel
    unwrapped. As an :class:`~repro.sim.process.Envelope` it is
    transparent to observers: metrics, trace events, spans and sim-CPU
    frames name the payload's type, and the envelope only shows as 10
    modelled bytes on each peer message.
    """

    group: GroupId
    msg: Any


# ------------------------------------------------------------------- catch-up
@fast_pickle
@dataclass(frozen=True, slots=True)
class FrontierProbe:
    """Leader -> all replicas, periodically: my applied frontier is
    ``instance``. Anti-entropy trigger: a replica that is behind asks for
    the missing prefix (covers replicas that recover or heal from a
    partition after client traffic has stopped)."""

    instance: InstanceId
    ballot: Ballot


@fast_pickle
@dataclass(frozen=True, slots=True)
class CatchUpQuery:
    """Lagging replica -> peer: what was chosen from ``from_instance`` on?"""

    from_instance: InstanceId


@fast_pickle
@dataclass(frozen=True, slots=True)
class CatchUpInfo:
    """Peer -> lagging replica: chosen values it asked for."""

    items: tuple[tuple[InstanceId, Proposal], ...] = field(default_factory=tuple)
    snapshot_instance: InstanceId = 0
    snapshot: Any = None
