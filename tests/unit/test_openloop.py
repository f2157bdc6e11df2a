"""Unit tests for the open-loop Poisson client."""

from __future__ import annotations

import pytest

from repro.client.openloop import OpenLoopClient
from repro.cluster.scenarios import open_loop_scenario
from repro.core.config import ReplicaConfig
from repro.core.replica import Replica
from repro.election.static import StaticElector
from repro.services.noop import NoopService
from repro.sim.kernel import Kernel
from repro.sim.world import World
from repro.types import RequestKind

PEERS = ("r0", "r1", "r2")


def run_client(kind=RequestKind.ORIGINAL, rate=1000.0, total=50, seed=1, warmup=0.01):
    kernel = Kernel(seed=seed)
    world = World(kernel)
    config = ReplicaConfig(peers=PEERS)
    for pid in PEERS:
        world.add(Replica(pid, config, NoopService, StaticElector("r0")))
    client = OpenLoopClient(
        "c0", PEERS, kind, op=(kind.value,), rate=rate, total=total,
        wait_for_start=False, warmup=warmup,
    )
    world.add(client)
    world.start()
    while not client.done and kernel.now < 30.0:
        kernel.run(until=kernel.now + 0.1)
    return client


class TestOpenLoop:
    def test_all_requests_complete(self):
        client = run_client()
        assert client.done
        assert client.stats.fired == 50
        assert client.stats.completed == 50
        assert len(client.stats.rrts) == 50

    def test_write_kind_goes_through_consensus(self):
        client = run_client(kind=RequestKind.WRITE, total=30)
        assert client.stats.completed == 30

    def test_poisson_interarrivals_average_to_rate(self):
        client = run_client(rate=2000.0, total=400)
        assert client.done
        # 400 arrivals at 2000/s take ~0.2 s on average.
        # (Completion time also includes RTTs; just sanity-check magnitude.)
        assert client.stats.completed == 400

    def test_warmup_zero_loses_requests_to_recovery(self):
        # Documents WHY warmup exists: with real link latency the initial
        # leader recovery takes a few hundred microseconds; at high rate
        # with no warmup, the first arrivals land on a still-recovering
        # leader and are lost (open-loop clients never retransmit).
        from repro.net.network import SimNetwork
        from repro.net.profiles import sysnet

        profile = sysnet()
        topology = profile.build_topology(PEERS, ("c0",))
        kernel = Kernel(seed=1)
        world = World(kernel, SimNetwork(topology, seed=1))
        config = ReplicaConfig(peers=PEERS)
        for pid in PEERS:
            world.add(Replica(pid, config, NoopService, StaticElector("r0")))
        client = OpenLoopClient(
            "c0", PEERS, RequestKind.ORIGINAL, op=("original",),
            rate=100_000.0, total=50, wait_for_start=False, warmup=0.0,
        )
        world.add(client)
        world.start()
        kernel.run(until=5.0)
        assert client.stats.fired == 50
        assert client.stats.completed < client.stats.fired

    def test_runs_against_a_cluster_built_deployment(self):
        # The ``latency_throughput`` record's cell: the client joins a
        # ``Cluster`` (GroupHost replicas, the run's metrics registry).
        result = open_loop_scenario("write", rate=2000.0, total=40, seed=1)
        assert result.total_requests == 40
        assert result.rrt is not None and result.rrt.n == 40
        sent = dict(result.messages_by_type)
        assert sent["ClientRequest"] == 40 * 3 and sent["AcceptBatch"] > 0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            OpenLoopClient("c0", PEERS, RequestKind.READ, op=None, rate=0.0, total=1)

    def test_duplicate_reply_ignored(self):
        client = run_client(total=10)
        before = client.stats.completed
        from repro.core.messages import Reply
        from repro.core.requests import RequestId
        from repro.types import ReplyStatus

        client.on_message(
            "r0", Reply(rid=RequestId("c0", 0), status=ReplyStatus.OK, value=1)
        )
        assert client.stats.completed == before
