"""Integration: full stack on the Ω elector — crash the leader, let the
heartbeat timeouts drive failover with no external intervention.

Clients are paced so each run outlasts its fault schedule: ``Cluster.run``
returns when the clients finish, and a fault booked after that never fires.
Every test asserts its faults' ``fault.<kind>`` counters, so a re-timed
schedule cannot silently go vacuous again.
"""

from __future__ import annotations

from repro.client.workload import single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.core.replica import ReplicaRole
from repro.services.counter import CounterService
from repro.types import RequestKind
from tests.integration.util import build_cluster, elections, paced_adds


def omega_cluster(steps, **kw):
    kw.setdefault("elector", "omega")
    kw.setdefault("omega_heartbeat", 0.02)
    kw.setdefault("client_timeout", 0.15)
    return build_cluster(steps, **kw)


class TestOmegaFailover:
    def test_normal_operation_elects_r0(self):
        cluster = omega_cluster([single_kind_steps(RequestKind.WRITE, 10)])
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 10
        assert cluster.group_replicas()["r0"].role is ReplicaRole.LEADING

    def test_first_write_answered_before_omega_timeout(self):
        # Every replica boots at once and hears nobody claim a leader, so
        # none of them waits out its grace period before electing r0.
        cluster = omega_cluster([single_kind_steps(RequestKind.WRITE, 1)])
        cluster.run(max_time=30.0)
        (first,) = cluster.clients[0].request_records()
        assert first.completed_at < 2 * cluster.spec.omega_heartbeat
        assert first.retransmits == 0

    def test_leader_crash_fails_over_automatically(self):
        cluster = omega_cluster([paced_adds(30)], service_factory=CounterService, seed=21)
        FaultSchedule(cluster).crash_leader(at=0.15)
        cluster.run(max_time=60.0)
        assert cluster.metrics.counter_value("fault.crash") == 1
        assert elections(cluster) >= 2  # r0 at boot, r1 after the crash
        assert cluster.clients[0].completed_requests == 30
        assert cluster.group_replicas()["r1"].role is ReplicaRole.LEADING
        cluster.drain(2.0)
        alive = {p: r.service.value for p, r in cluster.group_replicas().items() if r.alive}
        assert set(alive.values()) == {30}

    def test_recovered_old_leader_does_not_destabilize(self):
        # §3.6 stability: r0 coming back must not depose r1.
        cluster = omega_cluster([paced_adds(40)], service_factory=CounterService, seed=22)
        schedule = FaultSchedule(cluster)
        schedule.crash_leader(at=0.15)
        schedule.recover("r0", at=0.35)
        cluster.run(max_time=60.0)
        assert cluster.metrics.counter_value("fault.crash") == 1
        assert cluster.metrics.counter_value("fault.recover") == 1
        assert elections(cluster) == 2  # r0 at boot, r1 after the crash; r0 never again
        replicas = cluster.group_replicas()
        assert replicas["r1"].role is ReplicaRole.LEADING
        assert replicas["r0"].alive
        assert replicas["r0"].role is ReplicaRole.FOLLOWER
        assert replicas["r0"].elector.current_leader() == "r1"
        assert cluster.clients[0].completed_requests == 40
        cluster.drain(2.0)
        values = {r.service.value for r in cluster.group_replicas().values() if r.alive}
        assert values == {40}

    def test_double_failover(self):
        cluster = omega_cluster([paced_adds(40)], service_factory=CounterService, seed=23)
        schedule = FaultSchedule(cluster)
        schedule.crash("r0", at=0.15)
        schedule.recover("r0", at=0.35)
        schedule.crash("r1", at=0.55)
        cluster.run(max_time=120.0)
        assert cluster.metrics.counter_value("fault.crash") == 2
        assert cluster.metrics.counter_value("fault.recover") == 1
        assert elections(cluster) >= 3  # r0, then r1, then r0 again
        assert cluster.group_replicas()["r0"].role is ReplicaRole.LEADING
        assert cluster.clients[0].completed_requests == 40
        cluster.drain(2.0)
        values = {r.service.value for r in cluster.group_replicas().values() if r.alive}
        assert values == {40}
