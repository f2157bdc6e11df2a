"""Integration tests for the basic protocol (§3.3): writes through consensus."""

from __future__ import annotations

import pytest

from repro.client.workload import Step, single_kind_steps
from repro.services.counter import CounterService
from repro.services.kvstore import KVStoreService
from repro.types import ReplyStatus, RequestKind
from tests.integration.util import build_cluster, converged_fingerprints


class TestWrites:
    def test_all_writes_complete(self):
        cluster = build_cluster([single_kind_steps(RequestKind.WRITE, 20)])
        cluster.run()
        client = cluster.clients[0]
        assert client.completed_requests == 20
        assert all(r.status is ReplyStatus.OK for r in client.request_records())

    def test_replies_come_from_leader(self):
        cluster = build_cluster([single_kind_steps(RequestKind.WRITE, 5)])
        cluster.run()
        # Only the leader replies (§3.3): the noop version counter counts
        # every write exactly once.
        values = [r.value for r in cluster.clients[0].request_records()]
        assert values == [1, 2, 3, 4, 5]

    def test_replicas_converge_after_drain(self):
        cluster = build_cluster(
            [single_kind_steps(RequestKind.WRITE, 30, op=("add_random", 1, 100))],
            service_factory=CounterService,
            seed=3,
        ).run()
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1

    def test_kvstore_replication(self):
        steps = single_kind_steps(
            RequestKind.WRITE, 10, op=lambda i: ("put", f"k{i}", i)
        )
        cluster = build_cluster([steps], service_factory=KVStoreService).run()
        prints = converged_fingerprints(cluster)
        expected = tuple(sorted((f"k{i}", i) for i in range(10)))
        assert set(prints.values()) == {expected}

    def test_multiple_clients_interleave_consistently(self):
        steps = [
            single_kind_steps(RequestKind.WRITE, 10, op=lambda i, c=c: ("put", f"{c}-{i}", i))
            for c in range(4)
        ]
        cluster = build_cluster(steps, service_factory=KVStoreService).run()
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1
        # All 40 writes landed.
        assert len(cluster.leader().service.data) == 40

    def test_log_instances_are_gapless(self):
        cluster = build_cluster([single_kind_steps(RequestKind.WRITE, 25)]).run()
        cluster.drain()
        for replica in cluster.group_replicas().values():
            assert replica.log.gaps() == ()
            assert replica.applied == replica.log.frontier

    def test_chosen_sequences_identical_across_replicas(self):
        cluster = build_cluster(
            [single_kind_steps(RequestKind.WRITE, 15) for _ in range(2)]
        ).run()
        cluster.drain()
        sequences = []
        for replica in cluster.group_replicas().values():
            top = replica.log.frontier
            seq = [
                replica.log.chosen_value(i).primary_rid
                for i in range(replica.log.compacted_to + 1, top + 1)
            ]
            sequences.append((replica.log.compacted_to, tuple(seq)))
        assert len({s for s in sequences}) == 1

    def test_service_error_reported_not_replicated(self):
        # Withdrawing from a nonexistent account raises ServiceError.
        steps = [Step(requests=((RequestKind.WRITE, ("deposit", "ghost", 5)),))]
        from repro.services.bank import BankService

        cluster = build_cluster([steps], service_factory=BankService).run()
        record = cluster.clients[0].request_records()[0]
        assert record.status is ReplyStatus.ERROR
        cluster.drain()
        # Nothing was committed for the failed request.
        assert all(r.log.frontier == 0 for r in cluster.group_replicas().values())


class TestRetransmitDedup:
    def test_duplicate_request_not_executed_twice(self):
        # A short client timeout forces retransmits even in a healthy run:
        # pick a timeout below the write RRT (~4 ms with 1 ms links).
        cluster = build_cluster(
            [single_kind_steps(RequestKind.WRITE, 10)],
            client_timeout=0.003,
        )
        cluster.run()
        client = cluster.clients[0]
        assert sum(r.retransmits for r in client.request_records()) > 0
        # At-most-once: the version counter saw exactly 10 increments.
        assert cluster.leader().service.version == 10
        assert [r.value for r in client.request_records()] == list(range(1, 11))

    def test_duplicate_delivery_by_network(self):
        # Force the network itself to duplicate every message.
        from repro.net.latency import ConstantLatency
        from repro.net.link import LinkSpec
        from repro.net.profiles import NetworkProfile
        from repro.net.topology import Topology
        from repro.sim.cpu import CpuProfile
        from repro.cluster.harness import Cluster, ClusterSpec

        def builder(replicas, clients):
            topo = Topology(
                default=LinkSpec(latency=ConstantLatency(1e-3), duplicate=1.0)
            )
            topo.place_all(list(replicas), "site")
            topo.place_all(list(clients), "site")
            return topo

        profile = NetworkProfile(
            name="dup",
            description="always duplicates",
            replica_cpu=CpuProfile(),
            client_cpu=CpuProfile(),
            paper_rrt={},
            _builder=builder,
            per_connection_overhead=0.0,
        )
        from repro.client.workload import single_kind_steps as sks

        cluster = Cluster(ClusterSpec(profile=profile, seed=1), [sks(RequestKind.WRITE, 10)])
        cluster.run()
        assert cluster.leader().service.version == 10


class TestBackupBehaviour:
    def test_backups_do_not_reply_to_writes(self):
        cluster = build_cluster([single_kind_steps(RequestKind.WRITE, 5)])
        cluster.run()
        replies = {pid: cluster.metrics.counter_value(f"proc.{pid}.send.Reply")
                   for pid in cluster.replicas}
        assert replies == {"r0": 5, "r1": 0, "r2": 0}

    def test_original_requests_skip_coordination(self):
        cluster = build_cluster([single_kind_steps(RequestKind.ORIGINAL, 5)])
        cluster.run()
        assert cluster.clients[0].completed_requests == 5
        assert cluster.metrics.counter_value("msg.send.AcceptBatch") == 0

    def test_original_leaves_backups_stale(self):
        # The baseline really is unreplicated: backups never see the writes.
        cluster = build_cluster(
            [single_kind_steps(RequestKind.ORIGINAL, 5, op=("write",))]
        ).run()
        cluster.drain()
        leader = cluster.leader()
        backups = [r for pid, r in cluster.group_replicas().items() if pid != cluster.leader_pid]
        assert leader.service.version == 5
        assert all(b.service.version == 0 for b in backups)
