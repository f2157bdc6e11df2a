"""Unit tests for the replica's acceptor role and helpers, driven by
injected protocol messages (no clients)."""

from __future__ import annotations

import pytest

from repro.core.ballot import Ballot, ProposalNumber
from repro.core.config import ReplicaConfig
from repro.core.messages import (
    AcceptBatch,
    AcceptedBatch,
    ChosenBatch,
    Nack,
    Prepare,
    Promise,
    Proposal,
)
from repro.core.replica import Replica, ReplicaRole
from repro.core.requests import ClientRequest, RequestId
from repro.core.state import StatePayload
from repro.election.static import ManualElector
from repro.services.counter import CounterService
from repro.sim.kernel import Kernel
from repro.sim.world import World
from repro.types import RequestKind, StateTransferMode

PEERS = ("r0", "r1", "r2")


def make_follower(seed=0):
    """A single follower replica r1 in a world with message sinks."""
    kernel = Kernel(seed=seed)
    world = World(kernel)
    config = ReplicaConfig(peers=PEERS)
    replica = Replica("r1", config, CounterService, ManualElector(None))
    world.add(replica)
    from repro.sim.process import Process

    for pid in ("r0", "r2", "c0"):
        world.add(Process(pid))
    world.start()
    return kernel, world, replica


def proposal(amount: int, client="c0", seq=0) -> Proposal:
    request = ClientRequest(
        RequestId(client, seq), RequestKind.WRITE, op=("add", amount)
    )
    return Proposal(
        requests=(request,),
        payload=StatePayload(StateTransferMode.DELTA, (amount,)),
        reply=amount,
    )


def sent_to(sent, dst, msg_type):
    return [e.msg for e in sent if e.dst == dst and isinstance(e.msg, msg_type)]


class TestAcceptPath:
    def test_accept_batch_acknowledged_and_logged(self, sent):
        kernel, _world, replica = make_follower()
        ballot = Ballot(0, "r0")
        batch = AcceptBatch(ballot=ballot, entries=((1, proposal(5)),))
        replica.on_message("r0", batch)
        kernel.run(until=0.1)
        acks = sent_to(sent, "r0", AcceptedBatch)
        assert len(acks) == 1 and acks[0].instances == (1,)
        assert replica.log.accepted_entry(1) is not None
        assert replica.promised == ballot

    def test_stale_ballot_nacked(self, sent):
        kernel, _world, replica = make_follower()
        replica.on_message("r0", Prepare(ballot=Ballot(5, "r2"), gaps=(), from_instance=1))
        stale = AcceptBatch(ballot=Ballot(1, "r0"), entries=((1, proposal(5)),))
        replica.on_message("r0", stale)
        kernel.run(until=0.1)
        nacks = sent_to(sent, "r0", Nack)
        assert len(nacks) == 1
        assert nacks[0].promised == Ballot(5, "r2")
        assert replica.log.accepted_entry(1) is None

    def test_equal_ballot_accepted(self, sent):
        kernel, _world, replica = make_follower()
        ballot = Ballot(3, "r0")
        replica.on_message("r0", Prepare(ballot=ballot, gaps=(), from_instance=1))
        replica.on_message("r0", AcceptBatch(ballot=ballot, entries=((1, proposal(1)),)))
        kernel.run(until=0.1)
        assert sent_to(sent, "r0", AcceptedBatch)

    def test_chosen_batch_applies_in_order(self):
        kernel, _world, replica = make_follower()
        ballot = Ballot(0, "r0")
        items = tuple((i, proposal(i, seq=i - 1)) for i in (1, 2, 3))
        replica.on_message("r0", ChosenBatch(items=items, ballot=ballot))
        kernel.run(until=0.1)
        assert replica.applied == 3
        assert replica.service.value == 1 + 2 + 3

    def test_chosen_gap_stalls_application(self):
        kernel, _world, replica = make_follower()
        ballot = Ballot(0, "r0")
        replica.on_message("r0", ChosenBatch(items=((2, proposal(2)),), ballot=ballot))
        kernel.run(until=0.1)
        assert replica.applied == 0  # instance 1 missing
        replica.on_message("r0", ChosenBatch(items=((1, proposal(1, seq=9)),), ballot=ballot))
        kernel.run(until=0.1)
        assert replica.applied == 2

    def test_chosen_triggers_catch_up_query(self, sent):
        from repro.core.messages import CatchUpQuery

        kernel, _world, replica = make_follower()
        ballot = Ballot(0, "r0")
        replica.on_message("r0", ChosenBatch(items=((5, proposal(5)),), ballot=ballot))
        kernel.run(until=0.1)
        queries = sent_to(sent, "r0", CatchUpQuery)
        assert len(queries) == 1 and queries[0].from_instance == 0

    def test_duplicate_chosen_idempotent(self):
        kernel, _world, replica = make_follower()
        ballot = Ballot(0, "r0")
        msg = ChosenBatch(items=((1, proposal(7)),), ballot=ballot)
        replica.on_message("r0", msg)
        replica.on_message("r0", msg)
        kernel.run(until=0.1)
        assert replica.service.value == 7  # applied once


def wal_kinds(replica, instance: int) -> list[tuple[str, Ballot | None]]:
    """The accept/choose records the device holds for ``instance``, in
    append order, as ``(kind, ballot of an accept)``."""
    kinds = []
    for frame in replica.store.device.durable:
        record = frame.record
        if record.kind == "accept" and record.payload[0].instance == instance:
            kinds.append(("accept", record.payload[0].ballot))
        elif record.kind == "choose" and record.payload[0] == instance:
            kinds.append(("choose", None))
    return kinds


class TestChooseAppends:
    """``choose`` appends an accept record only where the log does not
    already hold the instance at the choosing ballot."""

    def test_accepted_then_chosen_at_the_same_ballot_appends_only_the_choose(self):
        kernel, _world, replica = make_follower()
        ballot = Ballot(0, "r0")
        value = proposal(5)
        replica.on_message("r0", AcceptBatch(ballot=ballot, entries=((1, value),)))
        before = replica.store.device.appends
        replica.on_message("r0", ChosenBatch(items=((1, value),), ballot=ballot))
        kernel.run(until=0.1)
        assert replica.store.device.appends == before + 1
        assert wal_kinds(replica, 1) == [("accept", ballot), ("choose", None)]
        assert replica.applied == 1

    def test_chosen_without_a_prior_accept_appends_accept_and_choose(self):
        kernel, _world, replica = make_follower()
        ballot = Ballot(0, "r0")
        replica.on_message("r0", ChosenBatch(items=((1, proposal(5)),), ballot=ballot))
        kernel.run(until=0.1)
        assert wal_kinds(replica, 1) == [("accept", ballot), ("choose", None)]
        assert replica.log.accepted_entry(1).pn == ProposalNumber(ballot, 1)

    @pytest.mark.parametrize(
        "held, chosen",
        [(Ballot(0, "r0"), Ballot(1, "r2")), (Ballot(1, "r2"), Ballot(0, "r0"))],
        ids=["held-lower", "held-higher"],
    )
    def test_chosen_at_another_ballot_than_the_one_held_appends_both(self, held, chosen):
        kernel, _world, replica = make_follower()
        value = proposal(5)
        replica.on_message(held.leader, AcceptBatch(ballot=held, entries=((1, value),)))
        before = replica.store.device.appends
        replica.on_message(chosen.leader, ChosenBatch(items=((1, value),), ballot=chosen))
        kernel.run(until=0.1)
        # A round record may ride along (a higher round observed): count kinds.
        assert wal_kinds(replica, 1) == [
            ("accept", held), ("accept", chosen), ("choose", None),
        ]
        assert replica.store.device.appends >= before + 2

    def test_entry_replayed_after_a_crash_is_promised_and_not_appended_again(self, sent):
        """Crash between AcceptBatch and ChosenBatch: recovery rebuilds the
        entry from its WAL record, a Promise reports it, and the decision
        then appends only its choose record."""
        kernel, world, replica = make_follower()
        ballot = Ballot(0, "r0")
        value = proposal(5)
        replica.on_message("r0", AcceptBatch(ballot=ballot, entries=((1, value),)))
        kernel.run(until=0.1)
        world.crash("r1")
        world.recover("r1")
        assert replica.log.accepted_entry(1).pn == ProposalNumber(ballot, 1)
        replica.on_message("r2", Prepare(ballot=Ballot(1, "r2"), gaps=(), from_instance=1))
        kernel.run(until=0.2)
        (promise,) = sent_to(sent, "r2", Promise)
        assert [(e.pn, e.value) for e in promise.entries] == [
            (ProposalNumber(ballot, 1), value)
        ]
        replica.on_message("r0", ChosenBatch(items=((1, value),), ballot=ballot))
        kernel.run(until=0.3)
        assert wal_kinds(replica, 1) == [("accept", ballot), ("choose", None)]
        assert replica.applied == 1 and replica.service.value == 5


class TestPreparePath:
    def test_promise_reports_accepted_entries(self, sent):
        kernel, _world, replica = make_follower()
        old = Ballot(0, "r0")
        replica.on_message(
            "r0",
            AcceptBatch(ballot=old, entries=((1, proposal(1)), (2, proposal(2, seq=1)))),
        )
        new = Ballot(1, "r2")
        replica.on_message("r2", Prepare(ballot=new, gaps=(), from_instance=1))
        kernel.run(until=0.1)
        promises = sent_to(sent, "r2", Promise)
        assert len(promises) == 1
        promise = promises[0]
        assert {e.pn.instance for e in promise.entries} == {1, 2}
        assert promise.ballot == new
        assert replica.promised == new

    def test_promise_includes_latest_state(self, sent):
        kernel, _world, replica = make_follower()
        ballot = Ballot(0, "r0")
        replica.on_message("r0", ChosenBatch(items=((1, proposal(9)),), ballot=ballot))
        replica.on_message("r2", Prepare(ballot=Ballot(1, "r2"), gaps=(), from_instance=2))
        kernel.run(until=0.1)
        (promise,) = sent_to(sent, "r2", Promise)
        assert promise.latest is not None
        instance, (service_snap, _executed) = promise.latest
        assert instance == 1 and service_snap == 9

    def test_lower_prepare_nacked(self, sent):
        kernel, _world, replica = make_follower()
        replica.on_message("r2", Prepare(ballot=Ballot(5, "r2"), gaps=(), from_instance=1))
        replica.on_message("r0", Prepare(ballot=Ballot(1, "r0"), gaps=(), from_instance=1))
        kernel.run(until=0.1)
        assert sent_to(sent, "r0", Nack)

    def test_chosen_values_reported_in_promise(self, sent):
        # A replica that learned a decision must surface it to new leaders.
        kernel, _world, replica = make_follower()
        replica.on_message(
            "r0", ChosenBatch(items=((1, proposal(4)),), ballot=Ballot(0, "r0"))
        )
        replica.on_message("r2", Prepare(ballot=Ballot(1, "r2"), gaps=(1,), from_instance=2))
        kernel.run(until=0.1)
        (promise,) = sent_to(sent, "r2", Promise)
        assert {e.pn.instance for e in promise.entries} == {1}


class TestStableStorage:
    def test_promised_ballot_survives_crash(self):
        kernel, world, replica = make_follower()
        ballot = Ballot(7, "r0")
        replica.on_message("r0", Prepare(ballot=ballot, gaps=(), from_instance=1))
        kernel.run(until=0.1)
        world.crash("r1")
        world.recover("r1")
        assert replica.promised == ballot

    def test_service_state_rebuilt_from_checkpoint_and_log(self):
        kernel, world, replica = make_follower()
        ballot = Ballot(0, "r0")
        items = tuple((i, proposal(i, seq=i - 1)) for i in (1, 2, 3))
        replica.on_message("r0", ChosenBatch(items=items, ballot=ballot))
        kernel.run(until=0.1)
        assert replica.service.value == 6
        world.crash("r1")
        world.recover("r1")
        assert replica.service.value == 6
        assert replica.applied == 3

    def test_max_round_survives_crash(self):
        kernel, world, replica = make_follower()
        replica.on_message("r0", Prepare(ballot=Ballot(9, "r0"), gaps=(), from_instance=1))
        kernel.run(until=0.1)
        world.crash("r1")
        world.recover("r1")
        assert replica.max_round_seen == 9
