"""Integration tests for T-Paxos transactions (§3.5)."""

from __future__ import annotations

import pytest

from repro.client.workload import Step, paper_txn_steps, txn_steps
from repro.cluster.faults import FaultSchedule
from repro.core.messages import AcceptBatch
from repro.services.bank import BankService
from repro.services.kvstore import KVStoreService
from repro.types import ReplyStatus, RequestKind
from tests.integration.util import build_cluster, converged_fingerprints


def bank_factory():
    service = BankService()
    # Pre-fund synchronously: every replica starts from the same snapshot.
    service.accounts = {"alice": 100, "bob": 100}
    return service


class TestCommit:
    def test_txn_ops_answered_immediately(self):
        # A TXN_OP's RRT equals the unreplicated baseline (§3.5); compare
        # against a write in the same topology.
        opt = build_cluster([paper_txn_steps("optimized", 3, 10)]).run()
        base = build_cluster([paper_txn_steps("write_only", 3, 10)]).run()
        opt_op_rrts = [
            r.rrt
            for s in opt.clients[0].records
            for r in s.requests
            if r.kind is RequestKind.TXN_OP
        ]
        base_op_rrts = [
            r.rrt
            for s in base.clients[0].records
            for r in s.requests[:-1]
        ]
        assert max(opt_op_rrts) < min(base_op_rrts)

    def test_commit_replicates_all_ops(self):
        ops = [("put", "a", 1), ("put", "b", 2), ("put", "c", 3)]
        cluster = build_cluster(
            [txn_steps(1, ops, optimized=True)], service_factory=KVStoreService
        ).run()
        prints = converged_fingerprints(cluster)
        expected = tuple(sorted({"a": 1, "b": 2, "c": 3}.items()))
        assert set(prints.values()) == {expected}

    def test_one_consensus_instance_per_txn(self):
        cluster = build_cluster([paper_txn_steps("optimized", 5, 4)]).run()
        cluster.drain()
        # 4 transactions -> 4 instances, regardless of 5 ops each.
        assert cluster.leader().log.frontier == 4

    def test_commit_reply_ok(self):
        cluster = build_cluster([paper_txn_steps("optimized", 3, 5)]).run()
        for step in cluster.clients[0].records:
            assert not step.aborted
            assert step.requests[-1].status is ReplyStatus.OK

    def test_bank_transfer_txn(self):
        transfer = [("withdraw", "alice", 30), ("deposit", "bob", 30)]
        cluster = build_cluster(
            [txn_steps(1, transfer, optimized=True)], service_factory=bank_factory
        ).run()
        prints = converged_fingerprints(cluster)
        expected = (("alice", 70), ("bob", 130))
        assert set(prints.values()) == {expected}


class TestAbort:
    def test_client_abort_rolls_back(self):
        steps = [
            Step(
                requests=(
                    (RequestKind.TXN_OP, ("withdraw", "alice", 30)),
                    (RequestKind.TXN_ABORT, None),
                ),
                transactional=True,
            )
        ]
        cluster = build_cluster([steps], service_factory=bank_factory).run()
        cluster.drain()
        # Nothing replicated, leader rolled back.
        assert cluster.leader().service.accounts["alice"] == 100
        assert all(r.log.frontier == 0 for r in cluster.group_replicas().values())

    def test_lock_conflict_aborts_younger_txn(self):
        # Two clients transact on the same account: no-wait 2PL aborts one.
        op = [("withdraw", "alice", 10), ("deposit", "bob", 10)]
        steps = txn_steps(1, op, optimized=True)
        cluster = build_cluster(
            [steps, steps], service_factory=bank_factory, seed=7
        ).run()
        aborted = sum(1 for c in cluster.clients for s in c.records if s.aborted)
        committed = sum(c.completed_steps for c in cluster.clients)
        assert aborted == 1 and committed == 1
        # Conservation: exactly one transfer applied everywhere.
        prints = converged_fingerprints(cluster)
        assert set(prints.values()) == {(("alice", 90), ("bob", 110))}

    def test_aborted_txn_retries_and_succeeds(self):
        op = [("withdraw", "alice", 10), ("deposit", "bob", 10)]
        steps = txn_steps(1, op, optimized=True)
        cluster = build_cluster(
            [steps, steps],
            service_factory=bank_factory,
            seed=7,
            retry_aborted=True,
        ).run()
        committed = sum(c.completed_steps for c in cluster.clients)
        assert committed == 2
        prints = converged_fingerprints(cluster)
        assert set(prints.values()) == {(("alice", 80), ("bob", 120))}

    def test_paper_interleaving_hazard_prevented(self):
        """§3.5: T1 = r1, r3, commit; T2 = r2, r4, abort, interleaved. With
        strict 2PL + no-wait, T2 conflicts on the shared key and aborts
        *before* T1 could observe its effects — no inconsistency."""
        t1 = Step(
            requests=(
                (RequestKind.TXN_OP, ("put", "x", "T1")),
                (RequestKind.TXN_OP, ("put", "y", "T1")),
                (RequestKind.TXN_COMMIT, None),
            ),
            transactional=True,
        )
        t2 = Step(
            requests=(
                (RequestKind.TXN_OP, ("put", "x", "T2")),
                (RequestKind.TXN_OP, ("put", "z", "T2")),
                (RequestKind.TXN_ABORT, None),
            ),
            transactional=True,
        )
        cluster = build_cluster([[t1], [t2]], service_factory=KVStoreService).run()
        cluster.drain()
        data = cluster.leader().service.data
        # Whichever txn won the race on "x", the final state contains no
        # torn mixture: either T1 committed fully, or it aborted fully.
        if "x" in data:
            assert data.get("x") == "T1" and data.get("y") == "T1"
        assert "z" not in data or data.get("z") != "T2" or "x" not in data

    def test_txn_op_after_abort_reports_aborted_conflict_free(self):
        # An op for an unknown txn starts a new one; commit of an unknown
        # txn reports ABORTED.
        steps = [
            Step(requests=((RequestKind.TXN_COMMIT, None),), transactional=True)
        ]
        cluster = build_cluster([steps]).run()
        record = cluster.clients[0].records[0]
        assert record.aborted


class TestLeaderSwitchAbort:
    def test_leader_switch_mid_txn_aborts(self):
        """§3.6: "if the leader switches during the transaction, the
        previous leader ... cannot commit, and the transaction has to be
        aborted."""
        ops = [("withdraw", "alice", 30), ("deposit", "bob", 30)]
        steps = txn_steps(1, ops, optimized=True)
        cluster = build_cluster(
            [steps], service_factory=bank_factory, elector="manual",
            client_timeout=0.05,
        )
        # Ops take ~2 ms each on 1 ms links: op1 is executed and answered by
        # r0 at ~4 ms; switch at 4.5 ms, before op2 reaches r0 — so r0 has
        # executed part of the transaction when it is deposed.
        FaultSchedule(cluster).switch_leader("r1", at=0.0045)
        cluster.run(max_time=10.0)
        record = cluster.clients[0].records[0]
        assert record.requests[0].status is ReplyStatus.OK  # op1 ran on r0
        assert record.aborted
        # No replica holds a partial transfer.
        prints = converged_fingerprints(cluster)
        assert set(prints.values()) == {(("alice", 100), ("bob", 100))}

    def test_txn_after_switch_succeeds_on_new_leader(self):
        ops = [("withdraw", "alice", 30), ("deposit", "bob", 30)]
        steps = txn_steps(2, ops, optimized=True)  # two transactions
        cluster = build_cluster(
            [steps], service_factory=bank_factory, elector="manual",
            client_timeout=0.05, retry_aborted=True,
        )
        FaultSchedule(cluster).switch_leader("r1", at=0.003)
        cluster.run(max_time=10.0)
        assert cluster.clients[0].completed_steps == 2
        prints = converged_fingerprints(cluster)
        assert set(prints.values()) == {(("alice", 40), ("bob", 160))}
