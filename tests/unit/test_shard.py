"""Sharding units: dispatch registry, schedule group assignment, the
cross-group invariant, and two groups recovering from one shared disk."""

from __future__ import annotations

import pytest

from repro.chaos.invariants import check_cross_group_at_most_once
from repro.chaos.schedule import NemesisEvent, NemesisSchedule, assign_groups
from repro.core.ballot import Ballot, ProposalNumber
from repro.core.config import ReplicaConfig
from repro.core.group import ReplicationGroup
from repro.core.messages import GroupEnvelope, Prepare, Proposal
from repro.core.replica import Replica
from repro.core.requests import ClientRequest, RequestId
from repro.election.static import StaticElector
from repro.errors import ConfigError
from repro.obs.handle import NULL_OBS, Obs
from repro.obs.registry import MetricsRegistry
from repro.shard.host import GroupHost
from repro.sim.process import Env
from repro.storage.store import StableStore, StoragePump
from repro.types import RequestKind


def proposal(client: str = "c0", seq: int = 1) -> Proposal:
    request = ClientRequest(
        rid=RequestId(client, seq), kind=RequestKind.WRITE, op=("put", "x", seq)
    )
    return Proposal(requests=(request,), payload=None)


def pn(instance: int, round_: int = 1, leader: str = "r0") -> ProposalNumber:
    return ProposalNumber(Ballot(round_, leader), instance)


class _Service:
    def snapshot(self):
        return "empty"


def make_replica(obs: Obs = NULL_OBS, **config) -> Replica:
    cfg = ReplicaConfig(peers=("r0", "r1", "r2"), **config)
    return Replica("r0", cfg, _Service, StaticElector("r0"), obs=obs)


# ---------------------------------------------------------- dispatch registry
class TestDispatchRegistry:
    def test_every_entry_resolves_to_a_method(self):
        replica = make_replica()
        for msg_type, name in ReplicationGroup.DISPATCH.items():
            assert callable(getattr(replica, name)), (msg_type, name)
            assert replica._dispatch[msg_type] == getattr(replica, name)

    def test_registry_covers_the_protocol_surface(self):
        names = {t.__name__ for t in ReplicationGroup.DISPATCH}
        assert names == {
            "ClientRequest", "AcceptBatch", "AcceptedBatch", "Nack",
            "ChosenBatch", "Confirm", "Prepare", "Promise", "FrontierProbe",
            "CatchUpQuery", "CatchUpInfo", "Reply",
        }

    def test_unknown_message_is_counted_not_raised(self):
        registry = MetricsRegistry()
        replica = make_replica(obs=Obs(metrics=registry))
        replica.on_message("c9", object())
        assert registry.counters() == {"unknown_messages": 1}

    def test_dispatch_is_exact_type_match(self):
        """Subclasses do not inherit a handler (the wire carries concrete
        message types; a lookup by exact type keeps dispatch O(1))."""

        class FancyPrepare(Prepare):
            pass

        registry = MetricsRegistry()
        replica = make_replica(obs=Obs(metrics=registry))
        replica.on_message(
            "r1", FancyPrepare(ballot=Ballot(1, "r1"), gaps=(), from_instance=0)
        )
        assert registry.counters() == {"unknown_messages": 1}


# ------------------------------------------------------------- assign_groups
def _leader(at: float, pid: str = "r1") -> NemesisEvent:
    return NemesisEvent(at=at, kind="leader", pids=(pid,))


class TestAssignGroups:
    def test_single_group_is_identity(self):
        schedule = NemesisSchedule(
            seed=1, horizon=1.0, events=(_leader(0.1), _leader(1.01))
        )
        assert assign_groups(schedule, 1) is schedule

    def test_round_robin_and_final_fanout(self):
        schedule = NemesisSchedule(
            seed=1,
            horizon=1.0,
            events=(
                _leader(0.1),
                NemesisEvent(at=0.2, kind="crash", pids=("r0",)),
                _leader(0.3),
                _leader(0.5),
                NemesisEvent(at=1.0, kind="heal"),
                _leader(1.01, "r2"),
            ),
        )
        out = assign_groups(schedule, 3).events
        leaders = [e for e in out if e.kind == "leader"]
        # Mid-run switches rotate through the groups...
        assert [e.rgroup for e in leaders[:3]] == [0, 1, 2]
        # ...and the final stabilization switch covers every group.
        assert [(e.at, e.pids[0], e.rgroup) for e in leaders[3:]] == [
            (1.01, "r2", 0), (1.01, "r2", 1), (1.01, "r2", 2),
        ]
        # Non-leader events are untouched.
        assert [e.kind for e in out] == [
            "leader", "crash", "leader", "leader", "heal",
            "leader", "leader", "leader",
        ]

    def test_rgroup_round_trips_through_dicts(self):
        event = _leader(0.5)
        tagged = assign_groups(
            NemesisSchedule(seed=0, horizon=1.0, events=(event, _leader(1.0))), 2
        ).events[0]
        assert tagged.rgroup == 0
        assert NemesisEvent.from_dict(tagged.to_dict()) == tagged
        assert "rgroup" not in event.to_dict()
        assert NemesisEvent.from_dict(event.to_dict()) == event


# ------------------------------------------------- cross-group at-most-once
class TestCrossGroupAtMostOnce:
    def test_clean_when_groups_are_disjoint(self):
        by_group = {
            0: [{"chosen": [(1, proposal("c0", 1))]}],
            1: [{"chosen": [(1, proposal("c0", 2))]}],
        }
        assert check_cross_group_at_most_once(by_group) == []

    def test_same_rid_in_two_groups_is_flagged(self):
        by_group = {
            0: [{"chosen": [(1, proposal("c0", 7))]}],
            1: [{"chosen": [(4, proposal("c0", 7))]}],
        }
        violations = check_cross_group_at_most_once(by_group)
        assert len(violations) == 1
        assert violations[0].invariant == "cross_group_at_most_once"
        assert violations[0].data["groups"] == [0, 1]
        assert "c0#7" in violations[0].detail


# ------------------------------------------------------------ GroupHost unit
class TestGroupHost:
    def _host(self, n_groups: int = 2, obs: Obs = NULL_OBS) -> GroupHost:
        cfg = ReplicaConfig(peers=("r0", "r1", "r2"))
        electors = [StaticElector("r0") for _ in range(n_groups)]
        return GroupHost("r0", cfg, _Service, electors, obs=obs)

    def test_needs_at_least_one_group(self):
        cfg = ReplicaConfig(peers=("r0", "r1", "r2"))
        with pytest.raises(ConfigError):
            GroupHost("r0", cfg, _Service, [])

    def test_groups_share_one_pump(self):
        host = self._host()
        stores = [g.store for g in host.groups.values()]
        assert len({id(s.pump) for s in stores}) == 1
        assert stores[0].pump is host.pump

    def test_envelope_for_dead_group_is_dropped(self):
        registry = MetricsRegistry()
        host = self._host(obs=Obs(metrics=registry))
        host.groups[1].alive = False
        prepare = Prepare(ballot=Ballot(1, "r1"), gaps=(), from_instance=0)
        host.on_message("r1", GroupEnvelope(1, prepare))
        host.on_message("r1", GroupEnvelope(9, prepare))
        assert registry.counters() == {"proc.r0.dropped_group_messages": 2}

    def test_bare_non_request_message_is_counted(self):
        registry = MetricsRegistry()
        host = self._host(obs=Obs(metrics=registry))
        host.on_message("c0", object())
        assert registry.counters() == {"proc.r0.unknown_messages": 1}

    def test_group_broadcast_is_one_envelope_through_the_host_env(self):
        registry = MetricsRegistry()
        host = self._host(obs=Obs(metrics=registry))
        env = _RecordingEnv()
        host.bind(env)
        prepare = Prepare(ballot=Ballot(1, "r0"), gaps=(), from_instance=0)
        host.groups[1].broadcast(("r1", "r2"), prepare)
        host.groups[1].send("r2", prepare)
        host.groups[1].send("c0", prepare)  # not a peer: travels bare
        # One envelope for the whole broadcast: the world sizes it once.
        assert env.broadcasts == [(("r1", "r2"), GroupEnvelope(1, prepare))]
        assert env.sends == [("r2", GroupEnvelope(1, prepare)), ("c0", prepare)]
        assert registry.counter_value("proc.r0.g1.send.Prepare") == 3


class _RecordingEnv(Env):
    pid = "r0"
    now = 0.0
    rng = None

    def __init__(self) -> None:
        self.sends: list = []
        self.broadcasts: list = []

    def send(self, dst, msg):
        self.sends.append((dst, msg))

    def broadcast(self, dsts, msg):
        self.broadcasts.append((tuple(dsts), msg))

    def set_timer(self, delay, fn, *args):
        raise AssertionError("no timers in this test")


# ------------------------------------------- two groups, one shared platter
class _Handle:
    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled


class _Off:
    enabled = False


class _Tracer:
    enabled = False
    current = None

    def activate(self, ctx):
        return None

    def activate_for(self, ctx):
        return None

    def restore(self, token):
        pass


class _FakeHost:
    """Just enough of a ReplicationGroup for StableStore: config + clock."""

    def __init__(self, **config) -> None:
        self.config = ReplicaConfig(peers=("r0", "r1", "r2"), **config)
        self.pid = "r0"
        self.now = 0.0
        self.metrics = _Off()
        self.profiler = _Off()
        self.tracer = _Tracer()
        self.service_factory = _Service
        self.timers: list[tuple[float, object, _Handle]] = []

    def set_timer(self, delay, fn, *args):
        handle = _Handle()
        self.timers.append((self.now + delay, lambda: fn(*args), handle))
        return handle

    def advance(self, to: float) -> None:
        while True:
            due = [t for t in self.timers if t[0] <= to and t[2].active]
            if not due:
                break
            due.sort(key=lambda t: t[0])
            at, fn, handle = due[0]
            self.timers.remove((at, fn, handle))
            self.now = max(self.now, at)
            fn()
        self.now = max(self.now, to)


class TestTwoGroupsOneDisk:
    def _stores(self, **config) -> tuple[_FakeHost, StableStore, StableStore]:
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3, **config)
        pump = StoragePump(host)
        return host, StableStore(host, pump=pump, group=0), StableStore(
            host, pump=pump, group=1
        )

    def test_crash_restart_recovers_each_group_separately(self):
        host, s0, s1 = self._stores()
        s0.accept(pn(1), proposal("c0", 1))
        s0.choose(1, proposal("c0", 1))
        s1.accept(pn(1, leader="r1"), proposal("c1", 1))
        s1.accept(pn(2, leader="r1"), proposal("c1", 2))
        s1.record_round(5)
        fired = []
        s0.flush(lambda: fired.append("g0"))
        s1.flush(lambda: fired.append("g1"))
        host.advance(0.1)
        assert fired == ["g0", "g1"]  # one shared fsync clock serves both

        s0.crash()  # one power cut; the pump is shared, so both halt
        state0 = s0.recover()
        state1 = s1.recover()
        assert state0 is not None and state1 is not None
        # Group 0 sees exactly its own records...
        assert state0.replayed_records == 2
        assert s0.log.is_chosen(1)
        assert state0.max_round == -1
        # ...and group 1 exactly its own.
        assert state1.replayed_records == 3
        assert not s1.log.is_chosen(1)
        assert state1.max_round == 5

    def test_unsynced_tail_lost_for_both_groups(self):
        host, s0, s1 = self._stores()
        s0.choose(1, proposal("c0", 1))
        s1.choose(1, proposal("c1", 1))
        fired = []
        s0.flush(lambda: fired.append("g0"))
        host.advance(0.1)
        # Durable: both groups' first records. Now append without syncing.
        s0.choose(2, proposal("c0", 2))
        s1.choose(2, proposal("c1", 2))
        s0.crash()
        state0 = s0.recover()
        state1 = s1.recover()
        assert state0.replayed_records == 1 and state1.replayed_records == 1
        assert s0.log.is_chosen(1) and not s0.log.is_chosen(2)
        assert s1.log.is_chosen(1) and not s1.log.is_chosen(2)

    def test_per_group_checkpoints_on_one_device(self):
        host, s0, s1 = self._stores()
        s0.choose(1, proposal("c0", 1))
        s1.choose(1, proposal("c1", 1))
        s1.choose(2, proposal("c1", 2))
        s0.install_state(1, "snap-g0", {})
        s1.install_state(2, "snap-g1", {})
        s0.flush(lambda: None)
        host.advance(0.1)
        s0.crash()
        state0 = s0.recover()
        state1 = s1.recover()
        assert state0.checkpoint[0] == 1
        assert state0.checkpoint[1] == "snap-g0"
        assert state1.checkpoint[0] == 2
        assert state1.checkpoint[1] == "snap-g1"
        # Checkpointed prefixes replay nothing; each group starts there.
        assert s0.log.frontier == 1
        assert s1.log.frontier == 2
