"""n = 5 (t = 2): the protocols under multiple failures (§4.3's setting)."""

from __future__ import annotations

import pytest

from repro.client.workload import Step, single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.services.counter import CounterService
from repro.services.kvstore import KVStoreService
from repro.types import RequestKind
from tests.integration.util import build_cluster, elections, paced_adds


def five(steps, **kw):
    kw.setdefault("n_replicas", 5)
    kw.setdefault("client_timeout", 0.05)
    return build_cluster(steps, **kw)


class TestTwoFailures:
    def test_writes_survive_two_backup_crashes(self):
        steps = single_kind_steps(RequestKind.WRITE, 20, op=("add", 1))
        cluster = five([steps], service_factory=CounterService)
        schedule = FaultSchedule(cluster)
        schedule.crash("r3", at=0.01)
        schedule.crash("r4", at=0.02)
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 20
        cluster.drain(2.0)
        alive = {r.service.value for r in cluster.group_replicas().values() if r.alive}
        assert alive == {20}

    def test_reads_survive_two_backup_crashes(self):
        steps = single_kind_steps(RequestKind.READ, 20)
        cluster = five([steps])
        schedule = FaultSchedule(cluster)
        schedule.crash("r3", at=0.001)
        schedule.crash("r4", at=0.001)
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 20

    def test_three_crashes_stall_until_recovery(self):
        steps = single_kind_steps(RequestKind.WRITE, 5)
        cluster = five([steps])
        schedule = FaultSchedule(cluster)
        for pid, at in (("r2", 0.001), ("r3", 0.001), ("r4", 0.001)):
            schedule.crash(pid, at=at)
        schedule.recover("r2", at=1.0)
        cluster.start()
        cluster.kernel.run(until=0.9)
        assert cluster.clients[0].completed_requests == 0  # 2 of 5 is no majority
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 5

    def test_leader_plus_backup_crash_with_failover(self):
        steps = single_kind_steps(RequestKind.WRITE, 30, op=("add", 1))
        cluster = five([steps], service_factory=CounterService, elector="manual")
        schedule = FaultSchedule(cluster)
        schedule.crash("r4", at=0.01)
        schedule.crash_leader(at=0.02)
        schedule.switch_leader("r1", at=0.03)
        cluster.run(max_time=60.0)
        assert cluster.clients[0].completed_requests == 30
        cluster.drain(2.0)
        alive = {r.service.value for r in cluster.group_replicas().values() if r.alive}
        assert alive == {30}


class TestMixedWorkloadAtFive:
    def test_read_write_interleaving_consistent(self):
        steps = []
        for i in range(15):
            steps.append(Step(requests=((RequestKind.WRITE, ("put", "k", i)),)))
            steps.append(Step(requests=((RequestKind.READ, ("get", "k")),)))
        cluster = five([steps], service_factory=KVStoreService)
        FaultSchedule(cluster).crash("r4", at=0.01)
        cluster.run(max_time=30.0)
        records = cluster.clients[0].request_records()
        for i in range(15):
            assert records[2 * i + 1].value == i

    def test_omega_failover_at_five(self):
        cluster = five(
            [paced_adds(30)],  # outlasts both crashes
            service_factory=CounterService,
            elector="omega",
            omega_heartbeat=0.02,
            client_timeout=0.15,
        )
        schedule = FaultSchedule(cluster)
        schedule.crash_leader(at=0.15)
        schedule.crash("r1", at=0.35)  # kill the first successor too
        cluster.run(max_time=120.0)
        assert cluster.metrics.counter_value("fault.crash") == 2
        assert elections(cluster) >= 3  # r0, then r1, then r2
        assert cluster.clients[0].completed_requests == 30
        cluster.drain(2.0)
        alive = {r.service.value for r in cluster.group_replicas().values() if r.alive}
        assert alive == {30}
