"""Unit tests for the T-Paxos transaction manager (§3.5) at message level."""

from __future__ import annotations

import pytest

from repro.core.config import ReplicaConfig
from repro.core.messages import AcceptBatch, Reply
from repro.core.replica import Replica
from repro.core.requests import ClientRequest, RequestId
from repro.election.static import ManualElector, StaticElector
from repro.obs.handle import NULL_OBS, Obs
from repro.obs.registry import MetricsRegistry
from repro.services.bank import BankService
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.world import World
from repro.types import ReplyStatus, RequestKind

PEERS = ("r0", "r1", "r2")


def bank_factory():
    service = BankService()
    service.accounts = {"alice": 100, "bob": 100}
    return service


def make_leader(seed=0, obs=NULL_OBS, **config_kw):
    kernel = Kernel(seed=seed)
    world = World(kernel)
    config = ReplicaConfig(peers=PEERS, **config_kw)
    elector = ManualElector(None)
    leader = Replica("r0", config, bank_factory, elector, obs=obs)
    world.add(leader)
    for pid in PEERS[1:]:
        world.add(Replica(pid, config, bank_factory, StaticElector("r0")))
    world.add(Process("c0"))
    world.add(Process("c1"))
    world.start()
    elector.set_leader("r0")
    kernel.run(until=0.1)
    assert leader.is_leading
    return kernel, leader


def txn_op(seq, op, txn="t1", txn_seq=None, client="c0"):
    return ClientRequest(
        RequestId(client, seq), RequestKind.TXN_OP, op=op, txn=txn,
        txn_seq=txn_seq if txn_seq is not None else 0,
    )


def commit(seq, txn="t1", n_ops=1, client="c0"):
    return ClientRequest(
        RequestId(client, seq), RequestKind.TXN_COMMIT, txn=txn, txn_seq=n_ops
    )


def abort(seq, txn="t1", client="c0"):
    return ClientRequest(RequestId(client, seq), RequestKind.TXN_ABORT, txn=txn)


def replies_to(sent, client):
    return [e.msg for e in sent
            if e.dst == client and isinstance(e.msg, Reply)]


class TestOps:
    def test_op_executed_and_answered_immediately(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 10)))
        kernel.run(until=kernel.now + 0.05)
        (reply,) = replies_to(sent, "c0")
        assert reply.status is ReplyStatus.OK and reply.value == 90
        # Answered, but nothing replicated yet: the effect waits in the
        # transaction record and the live copy holds the committed balance.
        assert leader.service.accounts["alice"] == 100
        assert leader.log.frontier == 0
        leader.on_message("c0", commit(1, n_ops=1))
        kernel.run(until=kernel.now + 0.2)
        assert leader.log.frontier == 1
        assert leader.service.accounts["alice"] == 90

    def test_op_holds_locks(self):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 10)))
        kernel.run(until=kernel.now + 0.01)
        assert "alice" in leader.locks.holds("t1")

    def test_retransmitted_op_replies_cached_value(self, sent):
        kernel, leader = make_leader()
        request = txn_op(0, ("withdraw", "alice", 10))
        leader.on_message("c0", request)
        leader.on_message("c0", request)
        kernel.run(until=kernel.now + 0.05)
        values = [r.value for r in replies_to(sent, "c0")]
        assert values == [90, 90]
        assert leader.service.accounts["alice"] == 100  # until the commit
        leader.on_message("c0", commit(1, n_ops=1))
        kernel.run(until=kernel.now + 0.2)
        assert leader.service.accounts["alice"] == 90  # executed once

    def test_conflicting_txn_aborted_no_wait(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 10), txn="t1"))
        leader.on_message("c1", txn_op(0, ("deposit", "alice", 5), txn="t2", client="c1"))
        kernel.run(until=kernel.now + 0.05)
        (t2_reply,) = replies_to(sent, "c1")
        assert t2_reply.status is ReplyStatus.ABORTED
        assert leader.service.accounts["alice"] == 100  # until t1 commits
        leader.on_message("c0", commit(1, txn="t1", n_ops=1))
        kernel.run(until=kernel.now + 0.2)
        assert leader.service.accounts["alice"] == 90  # only t1's effect

    def test_failed_op_keeps_txn_alive(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "ghost", 1)))
        kernel.run(until=kernel.now + 0.05)
        (reply,) = replies_to(sent, "c0")
        assert reply.status is ReplyStatus.ERROR
        # Next op with txn_seq 0 still starts cleanly in the same txn.
        leader.on_message("c0", txn_op(1, ("withdraw", "alice", 10), txn_seq=0))
        kernel.run(until=kernel.now + 0.05)
        assert replies_to(sent, "c0")[-1].status is ReplyStatus.OK


class TestCommitAbort:
    def test_commit_replicates_and_releases_locks(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 10)))
        leader.on_message("c0", commit(1, n_ops=1))
        kernel.run(until=kernel.now + 0.2)
        assert replies_to(sent, "c0")[-1].value == "committed"
        assert leader.log.frontier == 1
        assert leader.locks.holds("t1") == frozenset()
        assert "t1" not in leader.txns.active

    def test_commit_retransmit_after_decision_replies_cached(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 10)))
        leader.on_message("c0", commit(1, n_ops=1))
        kernel.run(until=kernel.now + 0.2)
        leader.on_message("c0", commit(1, n_ops=1))
        kernel.run(until=kernel.now + 0.2)
        assert replies_to(sent, "c0")[-1].value == "committed"
        assert leader.log.frontier == 1  # no second instance

    def test_commit_for_unknown_txn_aborted(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", commit(0, txn="nope", n_ops=2))
        kernel.run(until=kernel.now + 0.05)
        assert replies_to(sent, "c0")[-1].status is ReplyStatus.ABORTED

    def test_commit_with_missing_prefix_aborts(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 10)))
        # Commit claims 2 ops but the leader saw only 1.
        leader.on_message("c0", commit(1, n_ops=2))
        kernel.run(until=kernel.now + 0.1)
        assert replies_to(sent, "c0")[-1].status is ReplyStatus.ABORTED
        # The seen op was rolled back.
        assert leader.service.accounts["alice"] == 100

    def test_op_with_wrong_seq_aborts(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 10), txn_seq=1))
        kernel.run(until=kernel.now + 0.05)
        assert replies_to(sent, "c0")[-1].status is ReplyStatus.ABORTED

    def test_abort_rolls_back_in_reverse(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 30)))
        leader.on_message("c0", txn_op(1, ("deposit", "bob", 30), txn_seq=1))
        leader.on_message("c0", abort(2))
        kernel.run(until=kernel.now + 0.05)
        assert leader.service.accounts == {"alice": 100, "bob": 100}
        assert replies_to(sent, "c0")[-1].value == "aborted"
        assert leader.locks.owners() == frozenset()

    def test_abort_of_unknown_txn_is_ok(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", abort(0, txn="nope"))
        kernel.run(until=kernel.now + 0.05)
        assert replies_to(sent, "c0")[-1].status is ReplyStatus.OK

    def test_op_after_commit_in_flight_rejected(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 10)))
        leader.on_message("c0", commit(1, n_ops=1))
        leader.on_message("c0", txn_op(2, ("deposit", "bob", 1), txn_seq=1))
        kernel.run(until=kernel.now + 0.2)
        errors = [r for r in replies_to(sent, "c0") if r.status is ReplyStatus.ERROR]
        assert errors and "committing" in str(errors[0].value)

    def test_drop_all_counts_aborts_without_undo(self):
        metrics = MetricsRegistry()
        kernel, leader = make_leader(obs=Obs(metrics=metrics))
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 30)))
        kernel.run(until=kernel.now + 0.01)
        assert metrics.counters("tpaxos.abort") == {}
        leader.txns.drop_all()
        assert metrics.counters("tpaxos.abort") == {"tpaxos.abort.leader_switch": 1}
        assert leader.txns.active == {}
        # The withdrawal never reached the live copy: nothing to rebuild.
        assert leader.service.accounts["alice"] == 100


class TestPayloadIsolation:
    def test_plain_write_full_payload_excludes_active_txn(self, sent):
        kernel, leader = make_leader()
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 10)))
        write = ClientRequest(RequestId("c1", 0), RequestKind.WRITE,
                              op=("deposit", "bob", 5))
        leader.on_message("c1", write)
        kernel.run(until=kernel.now + 0.2)
        assert "t1" in leader.txns.active  # still ACTIVE
        batches = [e.msg for e in sent if isinstance(e.msg, AcceptBatch)]
        assert batches and all(b == batches[0] for b in batches)  # one round
        ((_instance, proposal),) = batches[0].entries
        assert proposal.requests == (write,)
        assert proposal.payload.data == {"alice": 100, "bob": 105}
        assert replies_to(sent, "c1")[-1].value == 105


class TestIdleExpiry:
    """Zombie transactions: a client that abandons a transaction (e.g. a
    stale leader aborted it mid-stream during a partial view change, so it
    retried under a fresh txn id) never sends TXN_ABORT — the idle-expiry
    sweep must roll the orphan back and release its locks."""

    def test_idle_txn_expires_and_rolls_back(self):
        kernel, leader = make_leader(txn_timeout=0.3)
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 30)))
        kernel.run(until=kernel.now + 0.05)
        assert leader.service.accounts["alice"] == 100  # uncommitted
        kernel.run(until=kernel.now + 0.6)  # idle well past the timeout
        assert leader.txns.active == {}
        assert leader.service.accounts["alice"] == 100
        assert leader.locks.owners() == frozenset()

    def test_activity_refreshes_the_clock(self):
        kernel, leader = make_leader(txn_timeout=0.3)
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 10)))
        kernel.run(until=kernel.now + 0.2)
        # A second op arrives before the timeout: the transaction is live.
        leader.on_message("c0", txn_op(1, ("deposit", "bob", 10), txn_seq=1))
        kernel.run(until=kernel.now + 0.2)
        assert "t1" in leader.txns.active  # idle only 0.2s < 0.3s
        kernel.run(until=kernel.now + 0.4)
        assert leader.txns.active == {}  # now it expired

    def test_zero_timeout_disables_expiry(self):
        kernel, leader = make_leader(txn_timeout=0.0)
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 30)))
        kernel.run(until=kernel.now + 2.0)
        assert "t1" in leader.txns.active

    def test_expiry_unblocks_later_transactions(self, sent):
        kernel, leader = make_leader(txn_timeout=0.3)
        leader.on_message("c0", txn_op(0, ("withdraw", "alice", 30)))
        kernel.run(until=kernel.now + 0.05)
        # While the zombie holds the lock, c1's conflicting txn aborts.
        leader.on_message("c1", txn_op(0, ("withdraw", "alice", 5), txn="t2", client="c1"))
        kernel.run(until=kernel.now + 0.05)
        assert replies_to(sent, "c1")[-1].status is ReplyStatus.ABORTED
        kernel.run(until=kernel.now + 0.6)  # zombie expires
        leader.on_message("c1", txn_op(1, ("withdraw", "alice", 5), txn="t3", client="c1"))
        kernel.run(until=kernel.now + 0.05)
        assert replies_to(sent, "c1")[-1].status is ReplyStatus.OK
