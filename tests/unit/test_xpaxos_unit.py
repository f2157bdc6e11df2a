"""Unit tests for the X-Paxos read coordinator (§3.4) at message level."""

from __future__ import annotations

import pytest

from repro.core.ballot import Ballot
from repro.core.config import ReplicaConfig
from repro.core.messages import ChosenBatch, Confirm, Reply
from repro.core.replica import Replica
from repro.core.requests import ClientRequest, RequestId
from repro.election.static import ManualElector, StaticElector
from repro.obs.handle import Obs
from repro.obs.registry import MetricsRegistry
from repro.services.counter import CounterService
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.world import World
from repro.types import ReplyStatus, RequestKind

PEERS = ("r0", "r1", "r2", "r3", "r4")


def make_leader(n=3, execute_time=0.0, seed=0):
    """A leader r0 of an n-replica group.

    Backups are real replicas (so recovery completes), but reads are
    injected directly into the leader's coordinator — backups never see
    them, so every Confirm in these tests is explicitly injected.
    """
    kernel = Kernel(seed=seed)
    world = World(kernel)
    peers = PEERS[:n]
    config = ReplicaConfig(peers=peers, execute_time=execute_time)
    elector = ManualElector(None)
    leader = Replica("r0", config, CounterService, elector)
    world.add(leader)
    for pid in peers[1:]:
        world.add(Replica(pid, config, CounterService, StaticElector("r0")))
    world.add(Process("c0"))
    world.start()
    elector.set_leader("r0")
    kernel.run(until=0.1)  # recovery completes
    assert leader.is_leading
    return kernel, leader


def read_request(seq=0):
    return ClientRequest(RequestId("c0", seq), RequestKind.READ, op=("get",))


def replies(sent):
    return [e.msg for e in sent if isinstance(e.msg, Reply)]


class TestLeaderSide:
    def test_no_reply_before_majority_confirms(self, sent):
        kernel, leader = make_leader()
        leader.reads.begin("c0", read_request())
        kernel.run(until=kernel.now + 0.05)
        assert replies(sent) == []
        assert leader.reads.pending_count == 1

    def test_reply_after_one_confirm_in_three(self, sent):
        kernel, leader = make_leader(n=3)
        request = read_request()
        leader.reads.begin("c0", request)
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(sent)) == 1
        assert replies(sent)[0].status is ReplyStatus.OK

    def test_five_replicas_need_two_confirms(self, sent):
        kernel, leader = make_leader(n=5)
        request = read_request()
        leader.reads.begin("c0", request)
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert replies(sent) == []
        leader.reads.on_confirm("r2", Confirm(ballot=leader.ballot, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(sent)) == 1

    def test_duplicate_confirms_from_same_backup_dont_count_twice(self, sent):
        kernel, leader = make_leader(n=5)
        request = read_request()
        leader.reads.begin("c0", request)
        for _ in range(3):
            leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert replies(sent) == []

    def test_stale_ballot_confirm_ignored(self, sent):
        kernel, leader = make_leader()
        request = read_request()
        leader.reads.begin("c0", request)
        stale = Ballot(leader.ballot.round - 1, "r0")
        leader.reads.on_confirm("r1", Confirm(ballot=stale, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert replies(sent) == []

    def test_confirm_arriving_before_read_is_buffered(self, sent):
        kernel, leader = make_leader()
        request = read_request()
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        leader.reads.begin("c0", request)
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(sent)) == 1

    def test_execute_time_overlaps_confirm_wait(self, sent):
        kernel, leader = make_leader(execute_time=0.03)
        request = read_request()
        leader.reads.begin("c0", request)
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        # Confirm is in, but E has not elapsed.
        kernel.run(until=kernel.now + 0.02)
        assert replies(sent) == []
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(sent)) == 1

    def test_retransmitted_read_not_served_twice_concurrently(self, sent):
        kernel, leader = make_leader()
        request = read_request()
        leader.reads.begin("c0", request)
        leader.reads.begin("c0", request)  # retransmit while pending
        assert leader.reads.pending_count == 1
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(sent)) == 1

    def test_clear_drops_pending(self, sent):
        kernel, leader = make_leader()
        leader.reads.begin("c0", read_request())
        leader.reads.clear()
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=read_request().rid))
        kernel.run(until=kernel.now + 0.05)
        assert replies(sent) == []

    def test_malformed_read_rejected_cleanly(self, sent):
        kernel, leader = make_leader()
        bad = ClientRequest(RequestId("c0", 0), RequestKind.READ, op=("nonsense",))
        leader.reads.begin("c0", bad)
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(sent)) == 1
        assert replies(sent)[0].status is ReplyStatus.ERROR


class TestReadsBehindWrites:
    def test_read_during_accept_round_waits_for_it_and_reflects_it(self, sent):
        kernel, leader = make_leader()
        write = ClientRequest(RequestId("c0", 0), RequestKind.WRITE, op=("add", 5))
        leader.on_message("c0", write)
        assert leader.proposer.inflight is not None  # executed, not chosen
        read = read_request(seq=1)
        leader.reads.begin("c0", read)
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=read.rid))
        # Confirmed by a majority, but the service copy is ahead of chosen.
        assert replies(sent) == []
        kernel.run(until=kernel.now + 0.05)
        (answer,) = [e for e in sent if isinstance(e.msg, Reply) and e.msg.rid == read.rid]
        chosen = next(e for e in sent if isinstance(e.msg, ChosenBatch))
        assert sent.index(answer) > sent.index(chosen)
        assert answer.time == chosen.time
        assert answer.msg.value == 5


class TestBackupSide:
    def test_backup_confirms_to_promised_leader(self, sent):
        kernel = Kernel()
        world = World(kernel)
        config = ReplicaConfig(peers=PEERS[:3])
        backup = Replica("r1", config, CounterService, StaticElector("r0"))
        world.add(backup)
        for pid in ("r0", "r2", "c0"):
            world.add(Process(pid))
        world.start()
        from repro.core.messages import Prepare

        backup.on_message("r0", Prepare(ballot=Ballot(0, "r0"), gaps=(), from_instance=1))
        backup.on_message("c0", read_request())
        kernel.run(until=0.1)
        confirms = [e for e in sent if isinstance(e.msg, Confirm)]
        assert len(confirms) == 1
        assert confirms[0].dst == "r0"
        assert confirms[0].msg.ballot == Ballot(0, "r0")

    def test_backup_without_promise_stays_silent(self):
        kernel = Kernel()
        metrics = MetricsRegistry()
        world = World(kernel, obs=Obs(metrics=metrics))
        config = ReplicaConfig(peers=PEERS[:3])
        backup = Replica("r1", config, CounterService, StaticElector("r0"))
        world.add(backup)
        for pid in ("r0", "r2", "c0"):
            world.add(Process(pid))
        world.start()
        backup.on_message("c0", read_request())
        kernel.run(until=0.1)
        assert metrics.counter_value("proc.r1.send.Confirm") == 0
