"""Unit tests for the application services."""

from __future__ import annotations

import random

import pytest

from repro.errors import ServiceError
from repro.services.bank import BankService
from repro.services.base import ExecutionContext
from repro.services.broker import ResourceBrokerService
from repro.services.counter import CounterService
from repro.services.gridsched import GridSchedulerService
from repro.services.kvstore import KVStoreService
from repro.services.noop import NoopService


def ctx(seed=0, now=0.0):
    return ExecutionContext(rng=random.Random(seed), now=now)


class TestNoop:
    def test_read_returns_version(self):
        s = NoopService()
        assert s.execute(("read",), ctx()).reply == 0

    def test_write_bumps_version(self):
        s = NoopService()
        assert s.execute(("write",), ctx()).reply == 1
        assert s.execute(("write",), ctx()).reply == 2

    def test_snapshot_restore(self):
        s = NoopService(state_size=64)
        s.execute(("write",), ctx())
        snap = s.snapshot()
        t = NoopService()
        t.restore(snap)
        assert t.version == 1

    def test_no_locks(self):
        s = NoopService()
        assert s.locks_for(("write",)) == (frozenset(), frozenset())

    def test_padding_size(self):
        s = NoopService(state_size=1000)
        assert len(s.snapshot()[1]) == 1000

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            NoopService().execute(("bogus",), ctx())


class TestKVStore:
    def test_put_get(self):
        s = KVStoreService()
        assert s.execute(("put", "k", 1), ctx()).reply is None
        assert s.execute(("get", "k"), ctx()).reply == 1

    def test_put_returns_previous(self):
        s = KVStoreService()
        s.execute(("put", "k", 1), ctx())
        assert s.execute(("put", "k", 2), ctx()).reply == 1

    def test_delete(self):
        s = KVStoreService()
        s.execute(("put", "k", 1), ctx())
        assert s.execute(("delete", "k"), ctx()).reply == 1
        assert s.execute(("get", "k"), ctx()).reply is None

    def test_cas_success_and_failure(self):
        s = KVStoreService()
        s.execute(("put", "k", 1), ctx())
        assert s.execute(("cas", "k", 1, 2), ctx()).reply is True
        assert s.execute(("cas", "k", 1, 3), ctx()).reply is False
        assert s.data["k"] == 2

    def test_keys(self):
        s = KVStoreService()
        s.execute(("put", "b", 1), ctx())
        s.execute(("put", "a", 1), ctx())
        assert s.execute(("keys",), ctx()).reply == ["a", "b"]

    def test_delta_roundtrip(self):
        a, b = KVStoreService(), KVStoreService()
        r = a.execute(("put", "k", 5), ctx())
        b.apply_delta(r.delta)
        assert b.data == a.data

    def test_locks(self):
        s = KVStoreService()
        assert s.locks_for(("get", "k")) == (frozenset({"k"}), frozenset())
        assert s.locks_for(("put", "k", 1)) == (frozenset(), frozenset({"k"}))

    def test_fingerprint_order_insensitive(self):
        a, b = KVStoreService(), KVStoreService()
        a.execute(("put", "x", 1), ctx())
        a.execute(("put", "y", 2), ctx())
        b.execute(("put", "y", 2), ctx())
        b.execute(("put", "x", 1), ctx())
        assert a.state_fingerprint() == b.state_fingerprint()


class TestCounter:
    def test_add(self):
        s = CounterService()
        assert s.execute(("add", 5), ctx()).reply == 5

    def test_add_random_uses_rng(self):
        a, b = CounterService(), CounterService()
        ra = a.execute(("add_random", 1, 1000), ctx(seed=1))
        rb = b.execute(("add_random", 1, 1000), ctx(seed=2))
        assert ra.reply != rb.reply  # different streams -> divergence

    def test_add_random_repro_replay(self):
        a, b = CounterService(), CounterService()
        result = a.execute(("add_random", 1, 1000), ctx(seed=1))
        b.replay(("add_random", 1, 1000), result.repro)
        assert b.value == a.value

    def test_delta(self):
        a, b = CounterService(), CounterService()
        r = a.execute(("add", 3), ctx())
        b.apply_delta(r.delta)
        assert b.value == 3


class TestBroker:
    def loaded(self):
        s = ResourceBrokerService()
        for name in ("n1", "n2", "n3"):
            s.execute(("add_resource", name, 100), ctx())
        return s

    def test_request_places_task(self):
        s = self.loaded()
        result = s.execute(("request", "t1", 10), ctx())
        assert result.reply in ("n1", "n2", "n3")
        assert s.placements["t1"][0] == result.reply
        assert s.resources[result.reply][1] == 10

    def test_request_is_nondeterministic_across_rngs(self):
        outcomes = set()
        for seed in range(20):
            s = self.loaded()
            outcomes.add(s.execute(("request", "t", 10), ctx(seed=seed)).reply)
        assert len(outcomes) > 1

    def test_repro_replay_matches_leader(self):
        leader, backup = self.loaded(), self.loaded()
        result = leader.execute(("request", "t1", 10), ctx(seed=3))
        backup.replay(("request", "t1", 10), result.repro)
        assert backup.state_fingerprint() == leader.state_fingerprint()

    def test_no_capacity_returns_none(self):
        s = ResourceBrokerService()
        s.execute(("add_resource", "n1", 5), ctx())
        assert s.execute(("request", "t1", 10), ctx()).reply is None

    def test_release(self):
        s = self.loaded()
        placed = s.execute(("request", "t1", 10), ctx()).reply
        assert s.execute(("release", "t1"), ctx()).reply is True
        assert s.resources[placed][1] == 0
        assert s.execute(("release", "t1"), ctx()).reply is False

    def test_duplicate_resource_rejected(self):
        s = self.loaded()
        with pytest.raises(ServiceError):
            s.execute(("add_resource", "n1", 10), ctx())

    def test_duplicate_task_rejected(self):
        s = self.loaded()
        s.execute(("request", "t1", 10), ctx())
        with pytest.raises(ServiceError):
            s.execute(("request", "t1", 10), ctx())

    def test_power_of_two_prefers_less_loaded(self):
        s = ResourceBrokerService()
        s.execute(("add_resource", "busy", 1000), ctx())
        s.execute(("add_resource", "idle", 1000), ctx())
        s.resources["busy"][1] = 900
        # With both candidates sampled, the less loaded one must win.
        picks = {s._pick(10, ctx(seed=i)) for i in range(10)}
        assert picks == {"idle"}

    def test_snapshot_restore(self):
        s = self.loaded()
        s.execute(("request", "t1", 10), ctx())
        t = ResourceBrokerService()
        t.restore(s.snapshot())
        assert t.state_fingerprint() == s.state_fingerprint()

    def test_delta_roundtrip(self):
        leader, backup = self.loaded(), self.loaded()
        result = leader.execute(("request", "t1", 10), ctx())
        backup.apply_delta(result.delta)
        assert backup.state_fingerprint() == leader.state_fingerprint()


class TestGridScheduler:
    def test_fcfs_order(self):
        s = GridSchedulerService()
        s.execute(("submit", "j1", 0), ctx(now=1.0))
        s.execute(("submit", "j2", 0), ctx(now=2.0))
        assert s.execute(("dispatch",), ctx(now=3.0)).reply == "j1"

    def test_priority_overrides_fcfs(self):
        # The paper's §2 example: B arrives later with higher priority.
        s = GridSchedulerService()
        s.execute(("submit", "A", 0), ctx(now=1.0))
        s.execute(("submit", "B", 5), ctx(now=2.0))
        assert s.execute(("dispatch",), ctx(now=3.0)).reply == "B"

    def test_dispatch_depends_on_examination_time(self):
        # Examining between t1 and t2 picks A; after t2 picks B. Same
        # request sequence, different outcome — the §2 nondeterminism.
        def build():
            s = GridSchedulerService()
            s.execute(("submit", "A", 0), ctx(now=1.0))
            s.pending["B"] = type(s.pending["A"])("B", 5, 2.0, 1)  # arrives at 2.0
            return s

        early = build().execute(("dispatch",), ctx(now=1.5)).reply
        late = build().execute(("dispatch",), ctx(now=3.0)).reply
        assert early == "A" and late == "B"

    def test_dispatch_empty_returns_none(self):
        s = GridSchedulerService()
        assert s.execute(("dispatch",), ctx()).reply is None

    def test_repro_replay_matches_leader(self):
        leader, backup = GridSchedulerService(), GridSchedulerService()
        for op, now in ((("submit", "A", 0), 1.0), (("submit", "B", 5), 2.0)):
            result = leader.execute(op, ctx(now=now))
            backup.replay(op, result.repro)
        result = leader.execute(("dispatch",), ctx(now=9.0))
        backup.replay(("dispatch",), result.repro)
        assert backup.state_fingerprint() == leader.state_fingerprint()

    def test_duplicate_submit_rejected(self):
        s = GridSchedulerService()
        s.execute(("submit", "j1", 0), ctx())
        with pytest.raises(ServiceError):
            s.execute(("submit", "j1", 0), ctx())

    def test_queue_and_done_reads(self):
        s = GridSchedulerService()
        s.execute(("submit", "j1", 0), ctx(now=1.0))
        s.execute(("submit", "j2", 9), ctx(now=2.0))
        assert s.execute(("queue",), ctx()).reply == ["j2", "j1"]
        s.execute(("dispatch",), ctx(now=3.0))
        assert s.execute(("done",), ctx()).reply == ["j2"]

    def test_delta_roundtrip(self):
        leader, backup = GridSchedulerService(), GridSchedulerService()
        for op, now in ((("submit", "A", 0), 1.0), (("submit", "B", 5), 2.0)):
            result = leader.execute(op, ctx(now=now))
            backup.apply_delta(result.delta)
        result = leader.execute(("dispatch",), ctx(now=3.0))
        backup.apply_delta(result.delta)
        assert backup.state_fingerprint() == leader.state_fingerprint()


class TestBank:
    def funded(self):
        s = BankService()
        s.execute(("open", "alice", 100), ctx())
        s.execute(("open", "bob", 50), ctx())
        return s

    def test_deposit_withdraw(self):
        s = self.funded()
        assert s.execute(("deposit", "alice", 10), ctx()).reply == 110
        assert s.execute(("withdraw", "alice", 60), ctx()).reply == 50

    def test_insufficient_funds_returns_none_without_change(self):
        s = self.funded()
        assert s.execute(("withdraw", "bob", 500), ctx()).reply is None
        assert s.accounts["bob"] == 50

    def test_unknown_account_raises(self):
        s = self.funded()
        with pytest.raises(ServiceError):
            s.execute(("deposit", "ghost", 1), ctx())

    def test_duplicate_open_raises(self):
        s = self.funded()
        with pytest.raises(ServiceError):
            s.execute(("open", "alice", 1), ctx())

    def test_total(self):
        s = self.funded()
        assert s.execute(("total",), ctx()).reply == 150

    def test_locks(self):
        s = self.funded()
        assert s.locks_for(("balance", "alice")) == (frozenset({"alice"}), frozenset())
        assert s.locks_for(("deposit", "alice", 1)) == (frozenset(), frozenset({"alice"}))
