"""Checkpointing, log compaction and snapshot-based catch-up."""

from __future__ import annotations

import pytest

from repro.client.workload import single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.services.counter import CounterService
from repro.types import RequestKind
from tests.integration.util import build_cluster


def counter_writes(n):
    return single_kind_steps(RequestKind.WRITE, n, op=("add", 1))


class TestCheckpointing:
    def test_log_compacts_at_interval(self):
        cluster = build_cluster(
            [counter_writes(50)],
            service_factory=CounterService,
            checkpoint_interval=10,
        ).run()
        cluster.drain()
        for pid, replica in cluster.group_replicas().items():
            assert cluster.metrics.counter_value(f"proc.{pid}.g0.storage.checkpoints") >= 4
            assert replica.log.compacted_to >= 40
            # The log holds only the tail above the last checkpoint.
            assert len(replica.log) <= 10

    def test_checkpoint_contents_match_applied_state(self):
        cluster = build_cluster(
            [counter_writes(25)],
            service_factory=CounterService,
            checkpoint_interval=5,
        ).run()
        cluster.drain()
        leader = cluster.leader()
        instance, service_snap, _executed = leader.store.checkpoint
        assert instance <= leader.applied
        assert service_snap == instance  # counter value == #adds applied

    def test_recover_from_checkpoint_replays_tail(self):
        cluster = build_cluster(
            [counter_writes(30)],
            service_factory=CounterService,
            checkpoint_interval=8,
            client_timeout=0.05,
        )
        schedule = FaultSchedule(cluster)
        schedule.crash("r2", at=0.05)
        schedule.recover("r2", at=0.1)
        cluster.run(max_time=60.0)
        cluster.drain(2.0)
        assert cluster.group_replicas()["r2"].service.value == 30

    def test_catch_up_over_compacted_prefix_uses_snapshot(self):
        # r2 is partitioned while the leader commits and *compacts* the
        # instances r2 missed; healing must ship a snapshot, not log entries.
        cluster = build_cluster(
            [counter_writes(40)],
            service_factory=CounterService,
            checkpoint_interval=5,
            client_timeout=0.05,
        )
        schedule = FaultSchedule(cluster)
        schedule.partition([["r0", "r1"], ["r2"]], at=0.001)
        schedule.heal(at=1.0)
        cluster.run(max_time=60.0)
        cluster.drain(3.0)
        leader = cluster.leader()
        assert leader.log.compacted_to >= 35  # prefix is gone
        assert cluster.group_replicas()["r2"].service.value == 40
        assert cluster.group_replicas()["r2"].applied == leader.applied

    def test_new_leader_recovers_after_compaction(self):
        cluster = build_cluster(
            [counter_writes(40)],
            service_factory=CounterService,
            checkpoint_interval=5,
            elector="manual",
            client_timeout=0.05,
        )
        FaultSchedule(cluster).switch_leader("r1", at=0.08)
        cluster.run(max_time=60.0)
        cluster.drain(2.0)
        values = {r.service.value for r in cluster.group_replicas().values()}
        assert values == {40}
        assert cluster.clients[0].completed_requests == 40

    def test_executed_table_restored_from_checkpoint(self):
        # After a crash+recover, retransmitted old requests still dedup.
        cluster = build_cluster(
            [counter_writes(20)],
            service_factory=CounterService,
            checkpoint_interval=4,
            client_timeout=0.05,
        )
        schedule = FaultSchedule(cluster)
        schedule.crash("r0", at=0.04)
        schedule.recover("r0", at=0.08)
        cluster.run(max_time=60.0)
        cluster.drain(2.0)
        assert cluster.clients[0].completed_requests == 20
        values = {r.service.value for r in cluster.group_replicas().values()}
        assert values == {20}
