"""Stress: the protocol's retransmissions restore the reliable-channel
abstraction over a lossy, duplicating, reordering network."""

from __future__ import annotations

import pytest

from repro.client.workload import paper_txn_steps, single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.net.latency import UniformLatency
from repro.net.link import LinkSpec
from repro.net.profiles import NetworkProfile
from repro.net.topology import Topology
from repro.services.counter import CounterService
from repro.sim.cpu import CpuProfile
from repro.types import RequestKind


def hostile_profile(loss: float, duplicate: float, reorder: bool) -> NetworkProfile:
    def builder(replicas, clients):
        topo = Topology(
            default=LinkSpec(
                latency=UniformLatency(0.5e-3, 2e-3),
                loss=loss,
                duplicate=duplicate,
                jitter_reorder=reorder,
            )
        )
        topo.place_all(list(replicas), "site")
        topo.place_all(list(clients), "site")
        return topo

    return NetworkProfile(
        name="hostile",
        description=f"loss={loss} dup={duplicate} reorder={reorder}",
        replica_cpu=CpuProfile(),
        client_cpu=CpuProfile(),
        paper_rrt={},
        _builder=builder,
        per_connection_overhead=0.0,
    )


def run_hostile(loss=0.0, duplicate=0.0, reorder=False, seed=0, steps=None):
    profile = hostile_profile(loss, duplicate, reorder)
    spec = ClusterSpec(
        profile=profile,
        seed=seed,
        client_timeout=0.05,
        accept_retry=0.02,
        prepare_retry=0.02,
    )
    if steps is None:
        steps = [single_kind_steps(RequestKind.WRITE, 20, op=("add", 1))]
    cluster = Cluster(spec, steps, service_factory=CounterService)
    cluster.run(max_time=120.0)
    cluster.drain(2.0)
    return cluster


class TestLoss:
    @pytest.mark.parametrize("loss", [0.05, 0.2])
    def test_writes_complete_exactly_once_under_loss(self, loss):
        cluster = run_hostile(loss=loss, seed=3)
        assert cluster.clients[0].completed_requests == 20
        values = {r.service.value for r in cluster.group_replicas().values()}
        assert values == {20}

    def test_retransmissions_happened(self):
        cluster = run_hostile(loss=0.2, seed=3)
        retransmits = sum(
            r.retransmits for r in cluster.clients[0].request_records()
        )
        assert retransmits > 0


class TestDuplication:
    def test_duplicates_do_not_double_execute(self):
        cluster = run_hostile(duplicate=0.5, seed=4)
        assert cluster.clients[0].completed_requests == 20
        values = {r.service.value for r in cluster.group_replicas().values()}
        assert values == {20}


class TestReordering:
    def test_reordered_channels_preserve_instance_order(self):
        cluster = run_hostile(reorder=True, seed=5)
        assert cluster.clients[0].completed_requests == 20
        values = {r.service.value for r in cluster.group_replicas().values()}
        assert values == {20}
        for replica in cluster.group_replicas().values():
            assert replica.log.gaps() == ()


class TestEverythingAtOnce:
    def test_reads_writes_txns_under_chaos(self):
        steps = [
            single_kind_steps(RequestKind.WRITE, 10, op=("add", 1))
            + single_kind_steps(RequestKind.READ, 10, op=("get",)),
            paper_txn_steps("optimized", 3, 5),
        ]
        cluster = run_hostile(loss=0.1, duplicate=0.2, reorder=True, seed=6, steps=steps)
        assert cluster.all_done
        # 10 adds + 5 txns x 3 noop-writes... txn ops here are noop ("write",)
        # against CounterService -> ValueError -> ERROR replies. Use counter
        # adds for txns instead: see steps below.

    def test_counter_txns_under_chaos(self):
        from repro.client.workload import txn_steps

        steps = [
            single_kind_steps(RequestKind.WRITE, 10, op=("add", 1)),
            txn_steps(5, [("add", 2), ("add", 3)], optimized=True,
                      commit_op=("add", 0)),
        ]
        cluster = run_hostile(loss=0.1, duplicate=0.2, reorder=True, seed=7, steps=steps)
        assert cluster.all_done
        aborted = sum(1 for c in cluster.clients for s in c.records if s.aborted)
        committed_txns = cluster.clients[1].completed_steps
        expected = 10 + committed_txns * 5
        values = {r.service.value for r in cluster.group_replicas().values()}
        assert values == {expected}
        assert committed_txns + aborted == 5
