"""Integration: full stack on the Ω elector — crash the leader, let the
heartbeat timeouts drive failover with no external intervention."""

from __future__ import annotations

import pytest

from repro.client.workload import single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.core.replica import ReplicaRole
from repro.services.counter import CounterService
from repro.types import RequestKind
from tests.integration.util import build_cluster, converged_fingerprints


def omega_cluster(steps, **kw):
    kw.setdefault("elector", "omega")
    kw.setdefault("omega_heartbeat", 0.02)
    kw.setdefault("omega_timeout", 0.1)
    kw.setdefault("client_timeout", 0.15)
    return build_cluster(steps, **kw)


class TestOmegaFailover:
    def test_normal_operation_elects_r0(self):
        cluster = omega_cluster([single_kind_steps(RequestKind.WRITE, 10)])
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 10
        assert cluster.group_replicas()["r0"].role is ReplicaRole.LEADING

    def test_leader_crash_fails_over_automatically(self):
        steps = single_kind_steps(RequestKind.WRITE, 30, op=("add", 1))
        cluster = omega_cluster([steps], service_factory=CounterService, seed=21)
        FaultSchedule(cluster).crash_leader(at=0.06)
        cluster.run(max_time=60.0)
        assert cluster.clients[0].completed_requests == 30
        assert cluster.group_replicas()["r1"].role is ReplicaRole.LEADING
        cluster.drain(2.0)
        alive = {p: r.service.value for p, r in cluster.group_replicas().items() if r.alive}
        assert set(alive.values()) == {30}

    def test_recovered_old_leader_does_not_destabilize(self):
        # §3.6 stability: r0 coming back must not depose r1.
        steps = single_kind_steps(RequestKind.WRITE, 40, op=("add", 1))
        cluster = omega_cluster([steps], service_factory=CounterService, seed=22)
        schedule = FaultSchedule(cluster)
        schedule.crash_leader(at=0.05)
        schedule.recover("r0", at=0.5)
        cluster.run(max_time=60.0)
        assert cluster.group_replicas()["r1"].role is ReplicaRole.LEADING
        assert cluster.group_replicas()["r0"].role is ReplicaRole.FOLLOWER
        assert cluster.clients[0].completed_requests == 40
        cluster.drain(2.0)
        values = {r.service.value for r in cluster.group_replicas().values() if r.alive}
        assert values == {30 + 10}

    def test_double_failover(self):
        steps = single_kind_steps(RequestKind.WRITE, 40, op=("add", 1))
        cluster = omega_cluster([steps], service_factory=CounterService, seed=23)
        schedule = FaultSchedule(cluster)
        schedule.crash("r0", at=0.05)
        schedule.recover("r0", at=0.6)
        schedule.crash("r1", at=1.2)
        cluster.run(max_time=120.0)
        assert cluster.clients[0].completed_requests == 40
        cluster.drain(2.0)
        values = {r.service.value for r in cluster.group_replicas().values() if r.alive}
        assert values == {40}
