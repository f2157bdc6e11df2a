"""Integration tests for X-Paxos reads (§3.4).

The core consistency requirement: "the value that the service returns as a
response to a read must reflect the latest update."
"""

from __future__ import annotations

import pytest

from repro.client.workload import Step, single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.services.kvstore import KVStoreService
from repro.types import ReplyStatus, RequestKind
from tests.integration.util import build_cluster


def mixed_steps(n_pairs: int):
    """Alternate write k=i / read k, so every read has a defined expectation."""
    steps = []
    for i in range(n_pairs):
        steps.append(Step(requests=((RequestKind.WRITE, ("put", "k", i)),)))
        steps.append(Step(requests=((RequestKind.READ, ("get", "k")),)))
    return steps


class TestReadPath:
    def test_reads_complete(self):
        cluster = build_cluster([single_kind_steps(RequestKind.READ, 20)]).run()
        client = cluster.clients[0]
        assert client.completed_requests == 20
        assert all(r.status is ReplyStatus.OK for r in client.request_records())

    def test_reads_use_no_consensus_round(self):
        cluster = build_cluster([single_kind_steps(RequestKind.READ, 10)])
        cluster.run()
        assert cluster.metrics.counter_value("msg.send.AcceptBatch") == 0

    def test_backups_send_confirms(self):
        cluster = build_cluster([single_kind_steps(RequestKind.READ, 10)])
        cluster.run()
        # Two backups confirm each of the 10 reads, all to the leader.
        confirms = {pid: cluster.metrics.counter_value(f"proc.{pid}.send.Confirm")
                    for pid in cluster.replicas}
        assert confirms == {"r0": 0, "r1": 10, "r2": 10}
        leader_received = f"proc.{cluster.leader_pid}.recv.Confirm"
        assert cluster.metrics.counter_value(leader_received) == 20

    def test_read_reflects_latest_write(self):
        cluster = build_cluster([mixed_steps(15)], service_factory=KVStoreService).run()
        records = cluster.clients[0].request_records()
        for i in range(15):
            read = records[2 * i + 1]
            assert read.kind is RequestKind.READ
            assert read.value == i, f"read {i} returned stale value {read.value}"

    def test_reads_do_not_advance_log(self):
        cluster = build_cluster([single_kind_steps(RequestKind.READ, 10)]).run()
        cluster.drain()
        assert all(r.log.frontier == 0 for r in cluster.group_replicas().values())

    def test_read_faster_than_write(self):
        reads = build_cluster([single_kind_steps(RequestKind.READ, 50)], seed=1).run()
        writes = build_cluster([single_kind_steps(RequestKind.WRITE, 50)], seed=1).run()
        read_rrt = sum(reads.clients[0].rrts()) / 50
        write_rrt = sum(writes.clients[0].rrts()) / 50
        assert read_rrt < write_rrt

    def test_basic_mode_reads_go_through_consensus(self):
        cluster = build_cluster(
            [single_kind_steps(RequestKind.READ, 5)], xpaxos_reads=False
        ).run()
        assert cluster.metrics.counter_value("msg.send.AcceptBatch") > 0
        cluster.drain()
        assert cluster.leader().log.frontier == 5


class TestMajorityRequirement:
    def test_read_survives_one_backup_crash(self):
        cluster = build_cluster([single_kind_steps(RequestKind.READ, 10)])
        FaultSchedule(cluster).crash("r1", at=0.0005)
        cluster.run()
        assert cluster.clients[0].completed_requests == 10

    def test_read_blocks_without_majority(self):
        # Both backups down: the leader alone is not a majority of 3, so
        # X-Paxos must NOT answer reads (it could miss a committed write).
        cluster = build_cluster([single_kind_steps(RequestKind.READ, 1)])
        FaultSchedule(cluster).crash("r1", at=0.0005).crash("r2", at=0.0005)
        cluster.start()
        cluster.kernel.run(until=2.0)
        assert cluster.clients[0].completed_requests == 0

    def test_read_completes_after_backup_recovers(self):
        cluster = build_cluster([single_kind_steps(RequestKind.READ, 1)])
        schedule = FaultSchedule(cluster)
        schedule.crash("r1", at=0.0005).crash("r2", at=0.0005)
        schedule.recover("r1", at=1.0)
        cluster.run(max_time=5.0)
        assert cluster.clients[0].completed_requests == 1


class TestStaleLeaderSafety:
    def test_deposed_leader_cannot_answer_reads(self):
        """A leader that lost its majority to a newer ballot can never
        assemble confirms: its reads starve instead of returning stale data."""
        cluster = build_cluster(
            [single_kind_steps(RequestKind.READ, 1)], elector="manual"
        )
        # Give leadership to r1 everywhere EXCEPT r0 keeps believing in r0:
        cluster.start()
        cluster.kernel.run(until=0.0001)
        for pid in ("r1", "r2"):
            cluster.manual_electors_for().electors[pid].set_leader("r1")
        # r0 still thinks it leads; backups now confirm r1's ballot, not r0's.
        cluster.kernel.run(until=1.0)
        # r0 received the read and is leading in its own view, yet must not
        # have replied: zero completed requests at the client... unless r1
        # answered it (r1 is leading with a majority). The client accepts
        # r1's answer; the assertion is that r0 itself never finished it.
        counters = cluster.metrics.counters("proc.r0.g0.")
        assert counters["proc.r0.g0.req.read"] >= 1
        assert "proc.r0.g0.xpaxos.reads_served" not in counters
