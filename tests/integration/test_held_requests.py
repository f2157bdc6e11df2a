"""A follower holds what its clients sent it and serves it once it leads.

Clients send every request to all replicas (§4), so a follower already
holds the write that was in flight when the leader failed. The rule under
test (``ReplicationGroup._held``): a replica that is not LEADING keeps each
client's latest totally ordered request, and a new leader admits what it
holds when its recovery completes, by the executed table's verdict: NEW is
proposed, DUPLICATE answered from the table, STALE dropped.

The deployment is the flat test profile at 10 ms a hop with the manual
elector: the client's first write leaves at 11 ms and reaches every
replica at 21 ms.
"""

from __future__ import annotations

from repro.client.workload import Step, single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.services.counter import CounterService
from repro.types import RequestKind
from tests.integration.util import build_cluster

HOP = 0.01
CLIENT_TIMEOUT = 10.0


def adds(*gaps: float) -> list[Step]:
    return [Step(requests=((RequestKind.WRITE, ("add", 1)),), gap=gap) for gap in gaps]


def counter_cluster(steps, **overrides):
    return build_cluster(
        [steps], service_factory=CounterService, latency=HOP, elector="manual",
        client_timeout=CLIENT_TIMEOUT, **overrides,
    )


def frontiers(cluster) -> dict:
    return {pid: g.log.frontier for pid, g in cluster.group_replicas().items() if g.alive}


def counters(cluster) -> dict:
    return {pid: g.service.value for pid, g in cluster.group_replicas().items() if g.alive}


def test_new_leader_serves_the_write_its_client_already_sent():
    # E = 20 ms keeps r0 executing until after the crash, so no AcceptBatch
    # ever leaves it: only the followers' copies of the request survive.
    cluster = counter_cluster(
        single_kind_steps(RequestKind.WRITE, 1, op=("add", 1)), execute_time=0.02,
    )
    FaultSchedule(cluster).crash("r0", at=0.03).switch_leader("r1", at=0.04)
    cluster.run(max_time=CLIENT_TIMEOUT)
    assert cluster.metrics.counter_value("fault.crash") == 1
    [record] = cluster.clients[0].request_records()
    assert record.retransmits == 0
    assert record.completed_at < 0.2  # not the client's 10 s retransmit
    cluster.drain(1.0)
    assert counters(cluster) == {"r1": 1, "r2": 1}
    assert frontiers(cluster) == {"r1": 1, "r2": 1}


def test_held_request_already_chosen_is_answered_not_reproposed():
    cluster = counter_cluster(single_kind_steps(RequestKind.WRITE, 1, op=("add", 1)))
    FaultSchedule(cluster).switch_leader("r1", at=0.1)
    cluster.run(max_time=CLIENT_TIMEOUT)
    assert cluster.clients[0].completed_requests == 1
    cluster.drain(1.0)
    assert cluster.metrics.counter_value("fault.leader_switch") == 1
    # r1 answers c0#0 from its executed table, as it would a retransmit.
    assert cluster.metrics.counter_value("proc.r1.send.Reply") == 1
    assert frontiers(cluster) == {"r0": 1, "r1": 1, "r2": 1}
    assert counters(cluster) == {"r0": 1, "r1": 1, "r2": 1}


def test_held_request_older_than_the_latest_executed_is_never_proposed():
    # r1 holds c0#0, misses c0#1 behind a partition and learns it executed
    # through anti-entropy; leading then must not propose c0#0 again.
    cluster = counter_cluster(adds(0.0, 0.1))
    schedule = FaultSchedule(cluster)
    schedule.partition([["r1"], ["r0", "r2", "c0"]], at=0.1).heal(at=0.3)
    schedule.switch_leader("r1", at=1.0)
    cluster.run(max_time=CLIENT_TIMEOUT)
    assert cluster.clients[0].completed_requests == 2
    cluster.drain(1.5)
    assert cluster.metrics.counter_value("fault.leader_switch") == 1
    r1 = cluster.group_replicas()["r1"]
    assert r1.is_leading
    assert cluster.metrics.counter_value("proc.r1.recv.ClientRequest") == 1
    assert frontiers(cluster) == {"r0": 2, "r1": 2, "r2": 2}
    assert counters(cluster) == {"r0": 2, "r1": 2, "r2": 2}
