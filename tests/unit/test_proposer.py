"""Unit tests for the leader's sequential proposal pipeline.

These drive a real Replica inside a minimal world (constant latency, no
CPU cost) and inspect the pipeline directly.
"""

from __future__ import annotations

import pytest

from repro.core.config import ReplicaConfig
from repro.core.messages import AcceptBatch, Proposal
from repro.core.proposer import DEFER, SKIP, ProposalItem
from repro.core.replica import Replica
from repro.core.requests import ClientRequest, RequestId
from repro.core.state import StatePayload
from repro.election.static import StaticElector
from repro.obs.handle import NULL_OBS, Obs
from repro.obs.registry import MetricsRegistry
from repro.services.noop import NoopService
from repro.sim.kernel import Kernel
from repro.sim.world import World
from repro.types import RequestKind, StateTransferMode

PEERS = ("r0", "r1", "r2")


def make_cluster(seed=0, obs=NULL_OBS, **config_overrides):
    kernel = Kernel(seed=seed)
    world = World(kernel, obs=obs)
    config = ReplicaConfig(peers=PEERS, **config_overrides)
    replicas = {}
    for pid in PEERS:
        replica = Replica(pid, config, NoopService, StaticElector("r0"), obs=obs.scoped(pid))
        world.add(replica)
        replicas[pid] = replica
    world.start()
    kernel.run(until=0.5)  # let the initial (empty) recovery finish
    return kernel, world, replicas


def make_item(tag: str, outcomes: list):
    """An item whose prepare() yields from ``outcomes`` and records commits."""
    committed = []

    def prepare():
        outcome = outcomes.pop(0)
        if outcome == "proposal":
            request = ClientRequest(RequestId(f"c-{tag}", 0), RequestKind.WRITE)
            return Proposal(
                requests=(request,),
                # A valid NoopService snapshot, so backups can apply it.
                payload=StatePayload(StateTransferMode.FULL, (1, b"")),
                reply=tag,
            )
        return outcome

    item = ProposalItem(prepare=prepare, on_committed=lambda p, i: committed.append(i))
    return item, committed


class TestPipeline:
    def test_single_item_commits(self):
        kernel, _world, replicas = make_cluster()
        leader = replicas["r0"]
        item, committed = make_item("a", ["proposal"])
        leader.proposer.submit(item)
        kernel.run(until=kernel.now + 1.0)
        assert committed == [1]
        assert leader.log.frontier == 1

    def test_items_get_consecutive_instances(self):
        kernel, _world, replicas = make_cluster()
        leader = replicas["r0"]
        records = []
        for tag in ("a", "b", "c"):
            item, committed = make_item(tag, ["proposal"])
            records.append(committed)
            leader.proposer.submit(item)
        kernel.run(until=kernel.now + 1.0)
        assert [c[0] for c in records] == [1, 2, 3]

    def test_skip_items_consume_no_instance(self):
        kernel, _world, replicas = make_cluster()
        leader = replicas["r0"]
        skip_item, skip_committed = make_item("skip", [SKIP])
        real_item, real_committed = make_item("real", ["proposal"])
        leader.proposer.submit(skip_item)
        leader.proposer.submit(real_item)
        kernel.run(until=kernel.now + 1.0)
        assert skip_committed == []
        assert real_committed == [1]

    def test_defer_moves_on(self):
        kernel, _world, replicas = make_cluster()
        leader = replicas["r0"]
        deferred, deferred_committed = make_item("deferred", [DEFER, "proposal"])
        ready, ready_committed = make_item("ready", ["proposal"])
        leader.proposer.submit(deferred)
        leader.proposer.submit(ready)
        kernel.run(until=kernel.now + 1.0)
        # The deferred item yielded its slot; it re-enters later.
        assert ready_committed == [1]
        leader.proposer.resubmit_front(deferred)
        kernel.run(until=kernel.now + 1.0)
        assert deferred_committed == [2]

    def test_batching_under_load(self):
        metrics = MetricsRegistry()
        kernel, _world, replicas = make_cluster(obs=Obs(metrics=metrics))
        leader = replicas["r0"]
        for tag in range(10):
            item, _ = make_item(str(tag), ["proposal"])
            leader.proposer.submit(item)
        kernel.run(until=kernel.now + 1.0)
        # First round has 1 item (pumped immediately), the rest batch.
        assert metrics.counter_value("proc.r0.commits") == 10
        assert 1 < metrics.counter_value("proc.r0.proposer.rounds") < 10

    def test_max_batch_respected(self, sent):
        kernel, _world, replicas = make_cluster(max_batch=3)
        leader = replicas["r0"]
        # Stall the pipeline so a queue builds up, then release.
        leader.proposer.pause()
        for tag in range(9):
            item, _ = make_item(str(tag), ["proposal"])
            leader.proposer.submit(item)
        leader.proposer.resume()
        kernel.run(until=kernel.now + 1.0)
        batches = [
            len(e.msg.entries)
            for e in sent
            if isinstance(e.msg, AcceptBatch) and e.dst == "r1"
        ]
        assert max(batches) <= 3
        assert sum(batches) == 9

    def test_pause_blocks_pumping(self):
        kernel, _world, replicas = make_cluster()
        leader = replicas["r0"]
        leader.proposer.pause()
        item, committed = make_item("a", ["proposal"])
        leader.proposer.submit(item)
        kernel.run(until=kernel.now + 1.0)
        assert committed == []
        leader.proposer.resume()
        kernel.run(until=kernel.now + 1.0)
        assert committed == [1]

    def test_stop_drops_queue_and_inflight(self):
        kernel, _world, replicas = make_cluster()
        leader = replicas["r0"]
        item, committed = make_item("a", ["proposal"])
        leader.proposer.submit(item)  # in flight now (accepts sent)
        leader.proposer.stop()
        kernel.run(until=kernel.now + 1.0)
        assert committed == []
        assert leader.proposer.depth == 0

    def test_retransmit_on_silent_backup(self):
        metrics = MetricsRegistry()
        kernel, world, replicas = make_cluster(accept_retry=0.01, obs=Obs(metrics=metrics))
        leader = replicas["r0"]
        # Both backups down: no majority, so the leader keeps retransmitting.
        world.crash("r1")
        world.crash("r2")
        item, committed = make_item("a", ["proposal"])
        leader.proposer.submit(item)
        kernel.run(until=kernel.now + 0.1)
        assert committed == []
        assert metrics.counter_value("proc.r0.send.AcceptBatch") > 4  # original + retries
        # Recover one backup: commit completes.
        world.recover("r1")
        kernel.run(until=kernel.now + 0.2)
        assert committed == [1]

    def test_commit_needs_majority_not_all(self):
        kernel, world, replicas = make_cluster()
        world.crash("r2")
        leader = replicas["r0"]
        item, committed = make_item("a", ["proposal"])
        leader.proposer.submit(item)
        kernel.run(until=kernel.now + 1.0)
        assert committed == [1]


class TestExecuteTime:
    def test_execute_time_stalls_pipeline(self):
        from repro.sim.process import Process

        kernel, world, replicas = make_cluster(execute_time=0.05)
        world.add(Process("c0"))  # reply sink
        leader = replicas["r0"]
        request = ClientRequest(RequestId("c0", 0), RequestKind.WRITE, op=("write",))
        leader.on_message("c0", request)
        # Can't commit before E has elapsed.
        kernel.run(until=kernel.now + 0.04)
        assert leader.log.frontier == 0
        kernel.run(until=kernel.now + 0.2)
        assert leader.log.frontier == 1
