"""Integration tests for new-leader recovery (§3.3) under leader switches
and crashes, driving writes throughout."""

from __future__ import annotations

import pytest

from repro.client.workload import single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.core.replica import ReplicaRole
from repro.services.counter import CounterService
from repro.services.kvstore import KVStoreService
from repro.types import ReplyStatus, RequestKind
from tests.integration.util import build_cluster, converged_fingerprints


class TestLeaderSwitch:
    def test_writes_survive_instant_switch(self):
        steps = single_kind_steps(RequestKind.WRITE, 30, op=lambda i: ("put", i, i))
        cluster = build_cluster(
            [steps], service_factory=KVStoreService, elector="manual",
            client_timeout=0.05, seed=2,
        )
        FaultSchedule(cluster).switch_leader("r1", at=0.02)
        cluster.run(max_time=30.0)
        client = cluster.clients[0]
        assert client.completed_requests == 30
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1
        # Every key landed exactly once.
        assert cluster.group_replicas()["r1"].service.data == {i: i for i in range(30)}

    def test_no_write_lost_or_duplicated_across_switch(self):
        # The counter's final value is exactly the number of acknowledged
        # increments — a committed-then-reexecuted write would overshoot.
        steps = single_kind_steps(RequestKind.WRITE, 40, op=("add", 1))
        cluster = build_cluster(
            [steps], service_factory=CounterService, elector="manual",
            client_timeout=0.05, seed=4,
        )
        schedule = FaultSchedule(cluster)
        schedule.switch_leader("r1", at=0.015)
        schedule.switch_leader("r2", at=0.08)
        schedule.switch_leader("r0", at=0.15)
        cluster.run(max_time=60.0)
        assert cluster.clients[0].completed_requests == 40
        prints = converged_fingerprints(cluster)
        assert set(prints.values()) == {40}

    def test_new_leader_takes_over_role(self):
        cluster = build_cluster(
            [single_kind_steps(RequestKind.WRITE, 10)],
            elector="manual", client_timeout=0.05,
        )
        FaultSchedule(cluster).switch_leader("r2", at=0.01)
        cluster.run(max_time=30.0)
        assert cluster.group_replicas()["r2"].role is ReplicaRole.LEADING
        assert cluster.group_replicas()["r0"].role is ReplicaRole.FOLLOWER
        assert cluster.metrics.counter_value("proc.r2.g0.recovery.completed") >= 1

    def test_reads_after_switch_reflect_committed_writes(self):
        from repro.client.workload import Step

        steps = []
        for i in range(10):
            steps.append(Step(requests=((RequestKind.WRITE, ("put", "k", i)),)))
            steps.append(Step(requests=((RequestKind.READ, ("get", "k")),)))
        cluster = build_cluster(
            [steps], service_factory=KVStoreService, elector="manual",
            client_timeout=0.05,
        )
        FaultSchedule(cluster).switch_leader("r1", at=0.012)
        cluster.run(max_time=30.0)
        records = cluster.clients[0].request_records()
        for i in range(10):
            read = records[2 * i + 1]
            assert read.value == i

    def test_ballot_rises_across_switches(self):
        cluster = build_cluster(
            [single_kind_steps(RequestKind.WRITE, 20)],
            elector="manual", client_timeout=0.05,
        )
        schedule = FaultSchedule(cluster)
        schedule.switch_leader("r1", at=0.01)
        schedule.switch_leader("r0", at=0.05)
        cluster.run(max_time=30.0)
        r0 = cluster.group_replicas()["r0"]
        assert r0.role is ReplicaRole.LEADING
        assert r0.ballot is not None and r0.ballot.round >= 2


class TestLeaderCrash:
    def test_leader_crash_with_manual_failover(self):
        steps = single_kind_steps(RequestKind.WRITE, 25, op=("add", 1))
        cluster = build_cluster(
            [steps], service_factory=CounterService, elector="manual",
            client_timeout=0.05, seed=5,
        )
        schedule = FaultSchedule(cluster)
        schedule.crash_leader(at=0.02)
        schedule.switch_leader("r1", at=0.03)
        cluster.run(max_time=60.0)
        assert cluster.clients[0].completed_requests == 25
        cluster.drain()
        alive = {
            pid: r.service.value for pid, r in cluster.group_replicas().items() if r.alive
        }
        assert set(alive.values()) == {25}

    def test_crashed_leader_recovers_as_follower_and_catches_up(self):
        steps = single_kind_steps(RequestKind.WRITE, 30, op=("add", 1))
        cluster = build_cluster(
            [steps], service_factory=CounterService, elector="manual",
            client_timeout=0.05, seed=6,
        )
        schedule = FaultSchedule(cluster)
        schedule.crash_leader(at=0.02)
        schedule.switch_leader("r1", at=0.03)
        schedule.recover("r0", at=0.2)
        cluster.run(max_time=60.0)
        cluster.drain(2.0)
        r0 = cluster.group_replicas()["r0"]
        assert r0.alive and r0.role is ReplicaRole.FOLLOWER
        # r0 must have caught up with everything committed while it was down.
        assert r0.service.value == 30

    def test_backup_crash_does_not_stall_writes(self):
        steps = single_kind_steps(RequestKind.WRITE, 20)
        cluster = build_cluster([steps], client_timeout=0.05)
        FaultSchedule(cluster).crash("r2", at=0.01)
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 20

    def test_no_progress_without_majority_then_resume(self):
        steps = single_kind_steps(RequestKind.WRITE, 5)
        cluster = build_cluster([steps], client_timeout=0.05)
        schedule = FaultSchedule(cluster)
        schedule.crash("r1", at=0.001)
        schedule.crash("r2", at=0.001)
        schedule.recover("r1", at=1.0)
        cluster.start()
        cluster.kernel.run(until=0.9)
        assert cluster.clients[0].completed_requests == 0  # no majority
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 5


class TestPartition:
    def test_leader_isolated_from_backups_stalls_then_heals(self):
        steps = single_kind_steps(RequestKind.WRITE, 10)
        cluster = build_cluster([steps], client_timeout=0.05)
        schedule = FaultSchedule(cluster)
        schedule.partition([["r0"], ["r1", "r2"]], at=0.001)
        schedule.heal(at=1.0)
        cluster.start()
        cluster.kernel.run(until=0.9)
        stalled = cluster.clients[0].completed_requests
        assert stalled == 0
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 10

    def test_writes_commit_with_one_partitioned_backup(self):
        steps = single_kind_steps(RequestKind.WRITE, 10)
        cluster = build_cluster([steps], client_timeout=0.05)
        FaultSchedule(cluster).partition([["r0", "r1"], ["r2"]], at=0.001)
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 10

    def test_partitioned_backup_catches_up_after_heal(self):
        steps = single_kind_steps(RequestKind.WRITE, 10, op=("add", 1))
        cluster = build_cluster(
            [steps], service_factory=CounterService, client_timeout=0.05
        )
        schedule = FaultSchedule(cluster)
        schedule.partition([["r0", "r1"], ["r2"]], at=0.001)
        schedule.heal(at=0.5)
        cluster.run(max_time=30.0)
        cluster.drain(3.0)
        assert cluster.group_replicas()["r2"].service.value == 10
