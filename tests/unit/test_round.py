"""Unit tests for the one quorum round (:mod:`repro.core.round`) that the
leader's prepare round, recovery's closing accept round and every pipeline
round run on: a bare group in a minimal world, its peers silent sinks, the
votes cast by hand. No wall clock anywhere."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.ballot import Ballot, ProposalNumber
from repro.core.config import ReplicaConfig
from repro.core.group import ReplicaRole, ReplicationGroup
from repro.core.messages import (
    AcceptBatch,
    AcceptedBatch,
    Prepare,
    Promise,
    PromiseEntry,
    Proposal,
)
from repro.core.requests import ClientRequest, RequestId
from repro.core.round import QuorumRound
from repro.core.state import StatePayload
from repro.election.static import ManualElector
from repro.obs.handle import Obs
from repro.obs.registry import MetricsRegistry
from repro.services.noop import NoopService
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.world import World
from repro.types import RequestKind, StateTransferMode

PEERS = ("r0", "r1", "r2", "r3", "r4")  # majority: 3
BALLOT = Ballot(1, "r0")
RETRY = 0.1
PING = Prepare(ballot=BALLOT, gaps=(), from_instance=1)


def make_group(peers=PEERS, **config):
    """Group ``r0`` alone among silent peers (and one client sink)."""
    kernel = Kernel(seed=0)
    metrics = MetricsRegistry()
    world = World(kernel, obs=Obs(metrics=metrics))
    group = ReplicationGroup(
        "r0", ReplicaConfig(peers=peers, **config), NoopService, ManualElector(None)
    )
    world.add(group)
    for pid in (*peers[1:], "c0"):
        world.add(Process(pid))
    world.start()
    return kernel, metrics, group


def open_round(group):
    fired = []
    return QuorumRound(group, BALLOT, RETRY, fired.append), fired


def proposal(seq: int) -> Proposal:
    request = ClientRequest(RequestId("c0", seq), RequestKind.WRITE, op=("write",))
    return Proposal(
        requests=(request,),
        payload=StatePayload(StateTransferMode.FULL, (seq, b"")),
        reply=seq,
    )


def sends(sent):
    """(time, destination) of each message sent so far, at send time."""
    return [(round(s.time, 6), s.dst) for s in sent]


class TestCounting:
    def test_fires_once_at_a_majority_of_distinct_voters(self):
        _kernel, _metrics, group = make_group()
        round_, fired = open_round(group)
        round_.vote("r1", "first")
        round_.vote("r1", "again")  # a duplicate counts once; the later reply stays
        round_.vote("r2")
        assert fired == [] and round_.open
        round_.vote("r3")
        assert fired == [round_] and not round_.open
        round_.vote("r4")  # the round is over
        assert fired == [round_]
        assert round_.votes == {"r1": "again", "r2": None, "r3": None}

    def test_votes_after_close_change_nothing(self):
        _kernel, _metrics, group = make_group()
        round_, fired = open_round(group)
        round_.vote("r1")
        round_.close()
        for pid in ("r2", "r3", "r4"):
            round_.vote(pid)
        assert fired == [] and list(round_.votes) == ["r1"]

    def test_the_callback_sees_the_round_already_closed(self):
        _kernel, _metrics, group = make_group()
        seen = []
        round_ = QuorumRound(group, BALLOT, RETRY, lambda r: seen.append(r.open))
        for pid in ("r1", "r2", "r3"):
            round_.vote(pid)
        assert seen == [False]


class TestResending:
    def test_tick_reaches_only_laggards_and_stops_at_the_majority(self, sent):
        kernel, _metrics, group = make_group()
        round_, fired = open_round(group)
        round_.broadcast(group.others, PING)
        round_.vote("r1")
        kernel.run(until=1.5 * RETRY)
        first = [(0.0, pid) for pid in ("r1", "r2", "r3", "r4")]
        resent = [(RETRY, pid) for pid in ("r2", "r3", "r4")]
        assert sends(sent) == first + resent
        round_.vote("r2")
        kernel.run(until=2.5 * RETRY)
        assert sends(sent)[len(first + resent):] == [(2 * RETRY, "r3"), (2 * RETRY, "r4")]
        round_.vote("r3")  # majority: r1, r2, r3
        assert fired == [round_]
        assert kernel.run(until=10 * RETRY) == 0  # no resend, no timer tick

    def test_close_cancels_the_resend_timer(self):
        kernel, _metrics, group = make_group()
        round_, _fired = open_round(group)
        round_.broadcast(group.others, PING)
        kernel.run(until=0.0)  # the first PINGs land
        round_.close()
        assert kernel.run(until=10 * RETRY) == 0


class TestSelfVote:
    """The leader is an acceptor too: its vote counts once what it voted
    for is durable — at once on a write-through device, after the fsync
    otherwise."""

    def test_async_counts_at_once(self):
        _kernel, _metrics, group = make_group(fsync_mode="async")
        round_, _fired = open_round(group)
        group.accept_locally(ProposalNumber(BALLOT, 1), proposal(1))
        round_.vote_self()
        assert list(round_.votes) == ["r0"]

    def test_sync_counts_only_when_the_fsync_completes(self):
        kernel, _metrics, group = make_group(fsync_mode="sync", fsync_latency=1e-3)
        round_, _fired = open_round(group)
        group.accept_locally(ProposalNumber(BALLOT, 1), proposal(1))
        round_.vote_self()
        assert round_.votes == {}
        kernel.run(until=0.9e-3)
        assert round_.votes == {}
        assert group.store.device.unsynced > 0
        kernel.run(until=1.1e-3)
        assert list(round_.votes) == ["r0"]
        assert group.store.device.unsynced == 0

    def test_sync_self_vote_can_be_the_one_that_closes_the_round(self):
        kernel, _metrics, group = make_group(fsync_mode="sync", fsync_latency=1e-3)
        round_, fired = open_round(group)
        group.accept_locally(ProposalNumber(BALLOT, 1), proposal(1))
        round_.vote_self()
        round_.vote("r1")
        round_.vote("r2")
        assert fired == []  # two backups are not a majority of five
        kernel.run(until=2e-3)
        assert fired == [round_]

    def test_close_before_the_fsync_drops_the_self_vote(self):
        kernel, _metrics, group = make_group(fsync_mode="sync", fsync_latency=1e-3)
        round_, fired = open_round(group)
        group.accept_locally(ProposalNumber(BALLOT, 1), proposal(1))
        round_.vote_self()
        round_.close()
        kernel.run(until=5e-3)
        assert round_.votes == {} and fired == []


OPS = st.one_of(
    st.sampled_from(PEERS[1:]).map(lambda pid: ("vote", pid)),
    st.just(("vote_self",)),
    st.just(("tick",)),
    st.just(("close",)),
)


# ``sent`` spans every example; each example reads only what it appended.
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=st.lists(OPS, max_size=25))
def test_any_interleaving_fires_at_most_once_at_a_majority_and_never_after_close(
    ops, sent
):
    kernel, _metrics, group = make_group()
    majority = group.config.majority
    fired_at = []  # distinct voters when the callback ran
    round_ = QuorumRound(group, BALLOT, RETRY, lambda r: fired_at.append(len(r.votes)))
    round_.broadcast(group.others, PING)
    voters: set[str] = set()  # the model: votes cast while the round was open
    over = False
    for op in ops:
        sent_before = len(sent)
        if op[0] == "tick":
            kernel.run(until=kernel.now + RETRY)
            resent_to = {s.dst for s in sent[sent_before:]}
            assert resent_to == (set() if over else set(group.others) - voters)
            continue
        if op[0] == "close":
            round_.close()
            over = True
        else:
            if op[0] == "vote":
                pid = op[1]
                round_.vote(pid)
            else:  # async device: the self-vote counts at once
                pid = "r0"
                round_.vote_self()
            if not over:
                voters.add(pid)
                over = len(voters) >= majority
        assert len(sent) == sent_before  # only ticks send
        assert fired_at == ([majority] if len(voters) >= majority else [])
        assert round_.open is not over


class TestAckFilter:
    """``ReplicationGroup._on_accepted_batch`` holds the one filter in front
    of whichever accept round is in flight."""

    def test_stale_or_partial_acks_are_ignored_recovering_and_leading(self):
        kernel, _metrics, group = make_group(peers=PEERS[:3])
        group.observe_round(3)
        group.elector.set_leader("r0")
        ballot, old = group.ballot, Ballot(2, "r1")
        assert ballot == Ballot(4, "r0")

        # RECOVERING: r1's Promise reports instance 1 accepted under an older
        # ballot, so recovery closes with an accept round for it.
        entry = PromiseEntry(pn=ProposalNumber(old, 1), value=proposal(1))
        group.on_message(
            "r1", Promise(ballot=ballot, entries=(entry,), chosen_frontier=0, latest=None)
        )
        closing = group.recovery.inflight
        assert group.role is ReplicaRole.RECOVERING and closing.instances == (1,)
        group.on_message("r1", AcceptedBatch(ballot=old, instances=(1,)))
        group.on_message("r1", AcceptedBatch(ballot=ballot, instances=()))
        assert group.role is ReplicaRole.RECOVERING and list(closing.votes) == ["r0"]
        group.on_message("r1", AcceptedBatch(ballot=ballot, instances=(1,)))
        assert group.role is ReplicaRole.LEADING and group.recovery.inflight is None
        assert group.log.frontier == 1

        # LEADING: one pipeline round carrying instances 2 and 3.
        group.proposer.pause()
        for seq in (2, 3):
            request = ClientRequest(RequestId("c0", seq), RequestKind.WRITE, op=("write",))
            group.on_message("c0", request)
        group.proposer.resume()
        pipeline = group.proposer.inflight
        assert pipeline.instances == (2, 3)
        group.on_message("r1", AcceptedBatch(ballot=old, instances=(2, 3)))
        group.on_message("r1", AcceptedBatch(ballot=ballot, instances=(2,)))
        group.on_message("r1", AcceptedBatch(ballot=ballot, instances=(1,)))
        assert group.proposer.inflight is pipeline and list(pipeline.votes) == ["r0"]
        assert group.log.frontier == 1
        group.on_message("r1", AcceptedBatch(ballot=ballot, instances=(1, 2, 3)))
        assert group.proposer.inflight is None and group.log.frontier == 3
        kernel.run(until=1.0)  # whatever the round left behind fires harmlessly

    def test_an_ack_with_no_round_in_flight_is_ignored(self):
        _kernel, _metrics, group = make_group(peers=PEERS[:3])
        group.on_message("r1", AcceptedBatch(ballot=BALLOT, instances=(1,)))
        assert group.role is ReplicaRole.FOLLOWER and group.log.frontier == 0


def test_one_replica_is_its_own_majority():
    _kernel, metrics, group = make_group(peers=("r0",))
    group.elector.set_leader("r0")
    assert group.role is ReplicaRole.LEADING  # prepare round: no peers, self-vote
    request = ClientRequest(RequestId("c0", 0), RequestKind.WRITE, op=("write",))
    group.on_message("c0", request)
    assert group.log.frontier == 1
    assert metrics.counter_value("msg.send.AcceptBatch") == 0
