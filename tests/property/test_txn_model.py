"""Model-based property test for T-Paxos transactions (§3.5): a
transaction's ops run through the leader's ``TxnManager`` and committed
give the same replies and the same final state, on every replica, as the
same ops run in sequence on a copy of the service."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import ReplicaConfig
from repro.core.messages import Reply
from repro.core.replica import Replica
from repro.core.requests import ClientRequest, RequestId
from repro.election.static import ManualElector, StaticElector
from repro.errors import ServiceError
from repro.services.bank import BankService
from repro.services.base import ExecutionContext
from repro.services.kvstore import KVStoreService
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.world import World
from repro.types import ReplyStatus, RequestKind, StateTransferMode

PEERS = ("r0", "r1", "r2")

keys = st.sampled_from(["a", "b", "c"])
values = st.integers(0, 3)
kv_ops = st.one_of(
    st.tuples(st.just("put"), keys, values),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("get"), keys),
    st.tuples(st.just("cas"), keys, values, values),
    st.tuples(st.just("keys")),
)

accounts = st.sampled_from(["alice", "bob", "carol"])
amounts = st.integers(0, 120)
bank_ops = st.one_of(
    st.tuples(st.just("open"), accounts, amounts),
    st.tuples(st.just("deposit"), accounts, amounts),
    st.tuples(st.just("withdraw"), accounts, amounts),
    st.tuples(st.just("balance"), accounts),
    st.tuples(st.just("total")),
)


def kv_factory() -> KVStoreService:
    service = KVStoreService()
    service.data = {"a": 0, "b": 1}
    return service


def bank_factory() -> BankService:
    service = BankService()
    service.accounts = {"alice": 100, "bob": 50}
    return service


def sequential(factory, ops):
    """The model: each op on one copy, in order; a failed op changes nothing."""
    service = factory()
    ctx = ExecutionContext(rng=random.Random(0), now=0.0)
    replies = []
    for op in ops:
        try:
            replies.append((ReplyStatus.OK, service.execute(op, ctx).reply))
        except ServiceError:
            replies.append((ReplyStatus.ERROR, None))
    return replies, service.state_fingerprint()


def through_tpaxos(factory, ops, mode):
    """The same ops as one transaction on a three-replica group, committed."""
    kernel = Kernel(seed=0)
    world = World(kernel)
    config = ReplicaConfig(peers=PEERS, state_mode=mode)
    elector = ManualElector(None)
    replicas = [Replica("r0", config, factory, elector)]
    replicas += [Replica(pid, config, factory, StaticElector("r0")) for pid in PEERS[1:]]
    for replica in replicas:
        world.add(replica)
    client = Process("c0")
    inbox: list[Reply] = []
    client.on_message = lambda src, msg: inbox.append(msg)
    world.add(client)
    world.start()
    elector.set_leader("r0")
    kernel.run(until=0.1)
    leader = replicas[0]
    assert leader.is_leading

    replies = []
    recorded = 0
    for seq, op in enumerate(ops):
        request = ClientRequest(RequestId("c0", seq), RequestKind.TXN_OP, op=op,
                                txn="t1", txn_seq=recorded)
        leader.on_message("c0", request)
        kernel.run(until=kernel.now + 0.01)
        reply = inbox.pop()
        assert reply.rid == request.rid and not inbox
        # An op that fails stays out of the transaction (and its seq count).
        recorded += reply.status is ReplyStatus.OK
        replies.append((reply.status, reply.value if reply.status is ReplyStatus.OK else None))
    # Until the commit, the effects live only in the transaction record.
    assert leader.service.state_fingerprint() == factory().state_fingerprint()
    commit = ClientRequest(RequestId("c0", len(ops)), RequestKind.TXN_COMMIT,
                           txn="t1", txn_seq=recorded)
    leader.on_message("c0", commit)
    kernel.run(until=kernel.now + 0.2)
    assert inbox[-1].rid == commit.rid and inbox[-1].value == "committed"
    assert all(r.applied == leader.applied == 1 for r in replicas)
    return replies, [r.service.state_fingerprint() for r in replicas]


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(kv_ops, min_size=1, max_size=8),
       mode=st.sampled_from([StateTransferMode.FULL, StateTransferMode.DELTA]))
def test_kvstore_txn_matches_sequential_copy(ops, mode):
    expected_replies, expected_state = sequential(kv_factory, ops)
    replies, states = through_tpaxos(kv_factory, ops, mode)
    assert replies == expected_replies
    assert states == [expected_state] * len(PEERS)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(bank_ops, min_size=1, max_size=8),
       mode=st.sampled_from([StateTransferMode.FULL, StateTransferMode.DELTA]))
def test_bank_txn_matches_sequential_copy(ops, mode):
    expected_replies, expected_state = sequential(bank_factory, ops)
    replies, states = through_tpaxos(bank_factory, ops, mode)
    assert replies == expected_replies
    assert states == [expected_state] * len(PEERS)
