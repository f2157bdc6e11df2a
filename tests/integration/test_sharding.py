"""End-to-end sharded replication: two groups per process, routed by key,
one shared simulated disk per process, chaos-clean under faults."""

from __future__ import annotations

import pickle

from repro.chaos.runner import ChaosOptions, run_chaos
from repro.client.workload import single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.services.kvstore import KVStoreService
from repro.shard.router import ShardRouter
from repro.types import RequestKind
from tests.integration.util import build_cluster, converged_fingerprints

# crc32 % 2 puts these on opposite shards (see test_shard_router golden
# values); every test below leans on that placement.
G0_KEY = "alpha"  # group 0
G1_KEY = "x"  # group 1


def keyed_write_steps(count: int, prefix: str):
    def op(index):
        key = G0_KEY if index % 2 == 0 else G1_KEY
        return ("put", key, f"{prefix}:{index}")

    return single_kind_steps(RequestKind.WRITE, count, op=op)


def test_key_placement_assumption():
    router = ShardRouter(2)
    assert router.group_for_key(G0_KEY) == 0
    assert router.group_for_key(G1_KEY) == 1


class TestTwoGroups:
    def test_converges_per_group_with_disjoint_keyspaces(self):
        cluster = build_cluster(
            [keyed_write_steps(12, "c0"), keyed_write_steps(12, "c1")],
            service_factory=KVStoreService,
            groups=2,
        )
        cluster.run(max_time=30.0)
        assert all(c.completed_requests == 12 for c in cluster.clients)

        prints = converged_fingerprints(cluster)
        # Every process hosts (and reports) both groups...
        assert sorted(prints) == [
            f"r{i}/g{g}" for i in range(3) for g in range(2)
        ]
        # ...replicas of one group agree, and the two shards differ.
        g0 = {v for k, v in prints.items() if k.endswith("/g0")}
        g1 = {v for k, v in prints.items() if k.endswith("/g1")}
        assert len(g0) == 1 and len(g1) == 1
        assert g0 != g1

        # The router's word is law: each shard holds only its own keys.
        for host in cluster.replicas.values():
            assert set(host.groups[0].service.data) == {G0_KEY}
            assert set(host.groups[1].service.data) == {G1_KEY}

    def test_groups_elect_distinct_leaders(self):
        cluster = build_cluster(
            [keyed_write_steps(4, "c0")], service_factory=KVStoreService, groups=2
        )
        cluster.run(max_time=30.0)
        # Round-robin placement: group g is led by replica g % n.
        assert cluster.group_leader_pids == ("r0", "r1")
        r0, r1 = cluster.replicas["r0"], cluster.replicas["r1"]
        assert r0.groups[0].elector.current_leader() == "r0"
        assert r0.groups[1].elector.current_leader() == "r1"
        # Each shard committed through its own leader's log.
        assert cluster.metrics.counter_value("proc.r0.g0.commits") > 0
        assert cluster.metrics.counter_value("proc.r1.g1.commits") > 0

    def test_same_seed_is_deterministic(self):
        def probe():
            cluster = build_cluster(
                [keyed_write_steps(10, "c0")],
                service_factory=KVStoreService,
                groups=2,
                seed=7,
            )
            cluster.run(max_time=30.0)
            records = [
                (str(r.rid), r.sent_at, r.completed_at)
                for r in cluster.clients[0].request_records()
            ]
            return records, dict(cluster.metrics.counters())

        assert pickle.dumps(probe()) == pickle.dumps(probe())


class TestShardedCrashRecovery:
    def test_host_crash_recovers_both_groups_from_one_disk(self):
        def slow_steps(count, prefix):
            steps = keyed_write_steps(count, prefix)
            return [
                s.__class__(requests=s.requests, label=s.label, gap=0.05)
                for s in steps
            ]

        cluster = build_cluster(
            [slow_steps(10, "c0")],
            service_factory=KVStoreService,
            groups=2,
            fsync="sync",
        )
        # r2 backs both groups; cut its power mid-run and bring it back.
        FaultSchedule(cluster).crash("r2", at=0.2).recover("r2", at=0.4)
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 10

        prints = converged_fingerprints(cluster)
        assert len(prints) == 6  # r2 is back, reporting both groups
        g0 = {v for k, v in prints.items() if k.endswith("/g0")}
        g1 = {v for k, v in prints.items() if k.endswith("/g1")}
        assert len(g0) == 1 and len(g1) == 1
        # Recovery replayed the shared WAL, split by group tag.
        assert cluster.metrics.counter_value("proc.r2.g0.recovers") == 1
        assert cluster.metrics.counter_value("proc.r2.g1.recovers") == 1

    def test_leader_host_crash_fails_over_both_groups(self):
        cluster = build_cluster(
            [keyed_write_steps(8, "c0")],
            service_factory=KVStoreService,
            groups=2,
            elector="manual",
            client_timeout=0.3,
        )
        # r0 leads group 0 (and backs group 1). Kill it and move group 0's
        # leadership to r1, which now leads both shards.
        schedule = FaultSchedule(cluster)
        schedule.crash("r0", at=0.15)
        schedule.switch_leader("r1", at=0.2, group=0)
        cluster.run(max_time=60.0)
        assert cluster.clients[0].completed_requests == 8
        prints = converged_fingerprints(cluster)
        g0 = {v for k, v in prints.items() if k.endswith("/g0")}
        g1 = {v for k, v in prints.items() if k.endswith("/g1")}
        assert len(g0) == 1 and len(g1) == 1


class TestShardedChaos:
    def test_small_sharded_chaos_trial_is_clean(self):
        options = ChaosOptions(
            protocol="tpaxos",
            groups=2,
            fsync="sync",
            storage_faults=True,
            horizon=1.0,
            requests_per_client=6,
        )
        result = run_chaos(3, options)
        assert result.ok, [v.detail for v in result.violations]
        assert result.completed_requests > 0
