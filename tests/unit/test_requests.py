"""Unit tests for request ids and the at-most-once table."""

from __future__ import annotations

from repro.core.group import ReplicaRole
from repro.core.requests import ClientRequest, ExecutedTable, RequestId, Verdict
from repro.types import RequestKind
from tests.unit.test_round import make_group


class TestRequestId:
    def test_equality_and_hash(self):
        assert RequestId("c0", 1) == RequestId("c0", 1)
        assert RequestId("c0", 1) != RequestId("c0", 2)
        assert RequestId("c0", 1) != RequestId("c1", 1)
        assert len({RequestId("c0", 1), RequestId("c0", 1)}) == 1

    def test_str(self):
        assert str(RequestId("c0", 7)) == "c0#7"


class TestClientRequest:
    def test_str_includes_txn(self):
        r = ClientRequest(RequestId("c0", 1), RequestKind.TXN_OP, op=("x",), txn="t1")
        assert "txn=t1" in str(r)

    def test_kind_transactional(self):
        assert RequestKind.TXN_OP.is_transactional
        assert RequestKind.TXN_COMMIT.is_transactional
        assert RequestKind.TXN_ABORT.is_transactional
        assert not RequestKind.WRITE.is_transactional
        assert not RequestKind.READ.is_transactional


class TestExecutedTable:
    def test_lookup_hit(self):
        table = ExecutedTable()
        table.record(RequestId("c0", 1), "reply-1")
        assert table.verdict(RequestId("c0", 1)) == (Verdict.DUPLICATE, "reply-1")

    def test_lookup_miss(self):
        table = ExecutedTable()
        assert table.verdict(RequestId("c0", 1)) == (Verdict.NEW, None)

    def test_newer_request_replaces(self):
        table = ExecutedTable()
        table.record(RequestId("c0", 1), "one")
        table.record(RequestId("c0", 2), "two")
        assert table.verdict(RequestId("c0", 2)) == (Verdict.DUPLICATE, "two")
        assert table.verdict(RequestId("c0", 1)) == (Verdict.STALE, None)

    def test_out_of_order_record_ignored(self):
        # Closed-loop clients cannot regress; a late older record must not
        # clobber the newer reply.
        table = ExecutedTable()
        table.record(RequestId("c0", 5), "five")
        table.record(RequestId("c0", 3), "three")
        assert table.verdict(RequestId("c0", 5)) == (Verdict.DUPLICATE, "five")

    def test_clients_independent(self):
        table = ExecutedTable()
        table.record(RequestId("c0", 1), "a")
        table.record(RequestId("c1", 9), "b")
        assert table.verdict(RequestId("c0", 1)) == (Verdict.DUPLICATE, "a")
        assert table.verdict(RequestId("c1", 9)) == (Verdict.DUPLICATE, "b")

    def test_snapshot_restore_roundtrip(self):
        table = ExecutedTable()
        table.record(RequestId("c0", 1), "a")
        snap = table.snapshot()
        other = ExecutedTable()
        other.restore(snap)
        assert other.verdict(RequestId("c0", 1)) == (Verdict.DUPLICATE, "a")
        # Snapshot is a copy, not a view.
        table.record(RequestId("c0", 2), "b")
        assert other.verdict(RequestId("c0", 2)) == (Verdict.NEW, None)

    def test_is_stale_false_for_latest_and_future(self):
        table = ExecutedTable()
        table.record(RequestId("c0", 1), "a")
        assert table.verdict(RequestId("c0", 1))[0] is not Verdict.STALE
        assert table.verdict(RequestId("c0", 2))[0] is not Verdict.STALE


def test_a_leading_leader_drops_a_stale_write_unanswered():
    # A dup_burst copy of c0#5 reaches the leader after c0#6 executed: its
    # client has moved on, so it gets neither a reply nor an instance.
    _kernel, metrics, group = make_group(peers=("r0",))
    group.elector.set_leader("r0")
    assert group.role is ReplicaRole.LEADING
    group.on_message("c0", ClientRequest(RequestId("c0", 6), RequestKind.WRITE, op=("write",)))
    assert group.log.frontier == 1 and metrics.counter_value("msg.send.Reply") == 1
    submitted = []
    group.proposer.submit = submitted.append
    group.on_message("c0", ClientRequest(RequestId("c0", 5), RequestKind.WRITE, op=("write",)))
    assert submitted == [] and metrics.counter_value("msg.send.Reply") == 1
    assert group.log.frontier == 1
