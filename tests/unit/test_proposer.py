"""Unit tests for the leader's sequential proposal pipeline.

These drive a real Replica inside a minimal world (constant latency, no
CPU cost) and inspect the pipeline directly.
"""

from __future__ import annotations

import pytest

from repro.client.client import Client
from repro.client.openloop import OpenLoopClient
from repro.client.workload import single_kind_steps
from repro.core.config import ReplicaConfig
from repro.core.messages import AcceptBatch, Proposal, Reply
from repro.core.proposer import DEFER, SKIP, ProposalItem, SequentialProposer
from repro.core.replica import Replica
from repro.core.requests import ClientRequest, RequestId
from repro.core.state import StatePayload
from repro.election.static import StaticElector
from repro.obs.handle import NULL_OBS, Obs
from repro.obs.registry import MetricsRegistry
from repro.services.noop import NoopService
from repro.sim.cpu import CpuProfile
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.world import World
from repro.types import RequestKind, StateTransferMode

PEERS = ("r0", "r1", "r2")


def make_cluster(seed=0, obs=NULL_OBS, cpu=None, **config_overrides):
    kernel = Kernel(seed=seed)
    world = World(kernel, obs=obs)
    config = ReplicaConfig(peers=PEERS, **config_overrides)
    replicas = {}
    for pid in PEERS:
        replica = Replica(pid, config, NoopService, StaticElector("r0"), obs=obs.scoped(pid))
        world.add(replica, cpu=cpu)
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


#: Every message costs each process 10 us of CPU to send and to receive.
BUSY_CPU = CpuProfile(send_cost=10e-6, recv_cost=10e-6)


def write(client: str, seq: int = 0) -> ClientRequest:
    return ClientRequest(RequestId(client, seq), RequestKind.WRITE, op=("write",))


def accept_batches(sent, dst="r1"):
    return [e for e in sent if isinstance(e.msg, AcceptBatch) and e.src == "r0" and e.dst == dst]


class TestRoundStartsOnceTheLeaderIsIdle:
    """A round starts once the leader has handled every message already
    delivered to it, or at once with ``max_batch`` items queued."""

    def test_idle_leader_proposes_in_the_same_event(self, sent):
        metrics = MetricsRegistry()
        kernel, world, replicas = make_cluster(obs=Obs(metrics=metrics), cpu=BUSY_CPU)
        leader = replicas["r0"]
        assert leader.env.idle_at() == kernel.now  # nothing left to handle
        item, committed = make_item("a", ["proposal"])
        leader.proposer.submit(item)
        assert leader.proposer.inflight is not None
        assert leader.proposer._hold is None
        assert [e.time for e in accept_batches(sent)] == [kernel.now]
        kernel.run(until=kernel.now + 1.0)
        assert committed == [1]
        assert metrics.counter_value("proc.r0.proposer.held_rounds") == 0

    def test_request_in_the_receive_queue_rides_the_next_round(self, sent):
        metrics = MetricsRegistry()
        kernel, world, replicas = make_cluster(obs=Obs(metrics=metrics), cpu=BUSY_CPU)
        clients = {pid: world.add(Process(pid)) for pid in ("c0", "c1", "c2")}
        t0 = kernel.now
        # c0's write opens round 1 at t0 + 10 us; c1's is handled while
        # that round is in flight and queues; c2's reaches the leader
        # just before round 1 commits and waits in its receive queue.
        kernel.schedule_at(t0, clients["c0"].send, "r0", write("c0"))
        kernel.schedule_at(t0 + 12e-6, clients["c1"].send, "r0", write("c1"))
        kernel.schedule_at(t0 + 45e-6, clients["c2"].send, "r0", write("c2"))
        kernel.run(until=t0 + 0.01)
        c2_sent = next(e.time for e in sent if e.src == "c2")
        committed_at = next(
            e.time for e in sent if isinstance(e.msg, Reply) and e.dst == "c0"
        )
        assert c2_sent < committed_at  # delivered before round 1 committed
        rounds = [[p.requests[0].rid.client for _i, p in e.msg.entries]
                  for e in accept_batches(sent)]
        assert rounds == [["c0"], ["c1", "c2"]]
        assert metrics.counter_value("proc.r0.proposer.held_rounds") == 1
        assert metrics.counter_value("proc.r0.commits") == 3

    def test_a_full_batch_does_not_wait(self, sent):
        kernel, world, replicas = make_cluster(cpu=BUSY_CPU, max_batch=2)
        leader = replicas["r0"]
        leader.env._cpu.acquire(kernel.now, 1e-3)  # busy with other work
        first, _ = make_item("a", ["proposal"])
        leader.proposer.submit(first)
        assert leader.proposer._hold is not None and not accept_batches(sent)
        second, _ = make_item("b", ["proposal"])
        leader.proposer.submit(second)
        assert leader.proposer._hold is None
        assert [len(e.msg.entries) for e in accept_batches(sent)] == [2]

    def test_stop_during_a_hold_sends_no_accept(self, sent):
        kernel, world, replicas = make_cluster(cpu=BUSY_CPU)
        leader = replicas["r0"]
        leader.env._cpu.acquire(kernel.now, 1e-3)
        item, committed = make_item("a", ["proposal"])
        leader.proposer.submit(item)
        hold = leader.proposer._hold
        assert hold is not None and hold.active
        leader.proposer.stop()  # deposed while holding
        assert not hold.active
        kernel.run(until=kernel.now + 1.0)
        assert accept_batches(sent) == [] and committed == []

    @pytest.mark.parametrize(("more", "starts_after"), [(0.5e-3, 1.5e-3), (5e-3, 1e-3)])
    def test_a_hold_ends_by_twice_the_first_wait(self, sent, more, starts_after):
        """Work that lands during a hold extends it only while the leader
        will be idle by twice the first wait (here 2 ms): 0.5 ms more is
        waited for, 5 ms more is not."""
        kernel, world, replicas = make_cluster(cpu=BUSY_CPU)
        cpu = replicas["r0"].env._cpu
        t0 = kernel.now
        cpu.acquire(t0, 1e-3)
        item, committed = make_item("a", ["proposal"])
        replicas["r0"].proposer.submit(item)
        kernel.schedule_at(t0 + 0.5e-3, lambda: cpu.acquire(kernel.now, more))
        kernel.run(until=t0 + 0.1)
        (accept,) = accept_batches(sent)
        # Give or take the leader's periodic FrontierProbe exchange.
        assert accept.time == pytest.approx(t0 + starts_after, abs=50e-6)
        assert committed == [1]

    def test_a_lone_writer_commits_under_a_read_flood(self):
        """At the default ``max_batch`` one closed-loop writer never fills a
        batch, and the flood keeps the leader's CPU busy for good: the hold
        still ends, so its writes commit while the flood lasts."""
        kernel, world, replicas = make_cluster(cpu=BUSY_CPU)
        assert replicas["r0"].proposer.max_batch == 8
        # A read costs the leader 40 us (request, two Confirms, reply), so
        # 50 000 reads/s is twice what it can handle.
        flood = world.add(OpenLoopClient(
            "reads", PEERS, RequestKind.READ, op=("read",), rate=50_000.0,
            total=1_500, wait_for_start=False,
        ))
        writer = world.add(Client(
            "writer", PEERS, single_kind_steps(RequestKind.WRITE, 5),
            wait_for_start=False,
        ))
        while flood.stats.fired < flood.total:
            kernel.run(until=kernel.now + 1e-3)
        assert world.cpu("r0").busy_until - kernel.now > 0.01  # far behind
        assert writer.completed_requests >= 2
        kernel.run(until=kernel.now + 1.0)
        assert flood.done and writer.done


class Writer(Process):
    """A closed-loop client: sends its next write ``think`` seconds after
    the reply to its last one, up to write ``last``."""

    def __init__(self, pid: str, think: float, last: int = 1) -> None:
        super().__init__(pid)
        self.think = think
        self.last = last

    def on_message(self, src, msg):
        if isinstance(msg, Reply) and msg.rid.seq < self.last:
            next_write = write(self.pid, msg.rid.seq + 1)
            self.env.set_timer(self.think, self.env.send, "r0", next_write)


def rounds_of(sent):
    return [[f"{p.requests[0].rid.client}{p.requests[0].rid.seq}" for _i, p in e.msg.entries]
            for e in accept_batches(sent)]


class TestRoundWaitsOutTheFsyncForAnAnsweredClient:
    """With its host's fsync in flight, a round waits for a client the
    last round answered to write again, until that fsync ends."""

    def start(self, think: float, fsync_mode: str = "sync", clients=("a", "b")):
        """Round 1 carries a0; b0 queues behind it. The leader's device is
        slowed to 1.5 ms an fsync, so round 1 commits (on the backups'
        votes, at +0.5 ms) with the leader's own fsync still in flight."""
        kernel, world, replicas = make_cluster(fsync_mode=fsync_mode)
        leader = replicas["r0"]
        leader.store.pump.inject_disk_stall(duration=1.0, extra=1e-3)
        writers = {pid: world.add(Writer(pid, think)) for pid in clients}
        t0 = kernel.now
        for pid in clients:
            kernel.schedule_at(t0, writers[pid].send, "r0", write(pid))
        return kernel, leader, t0

    def test_the_round_waits_and_carries_the_answered_clients_next_write(self, sent):
        kernel, leader, t0 = self.start(think=0.2e-3)
        kernel.run(until=t0 + 0.5e-3)
        assert rounds_of(sent) == [["a0"]]
        kernel.run(until=t0 + 0.6e-3)  # committed: a answered, b queued
        assert leader.proposer._hold is not None
        assert leader.store.pump.fsync_ends_at == pytest.approx(t0 + 1.5e-3)
        assert rounds_of(sent) == [["a0"]]
        kernel.run(until=t0 + 0.1)
        assert rounds_of(sent) == [["a0"], ["b0", "a1"], ["b1"]]
        # a1 ended the hold in the event that delivered it: 0.2 ms after
        # a's reply.
        assert accept_batches(sent)[1].time == pytest.approx(t0 + 0.7e-3)

    def test_the_hold_ends_with_the_fsync_and_the_round_rides_the_next(self, sent):
        kernel, leader, t0 = self.start(think=5e-3)
        pump = leader.store.pump
        kernel.run(until=t0 + 1.5e-3)
        assert rounds_of(sent) == [["a0"], ["b0"]]  # a did not come back
        assert accept_batches(sent)[1].time == pytest.approx(t0 + 1.5e-3)
        # Released before the follow-up fsync started: that fsync covers
        # the leader's accept of b0.
        assert pump._fsync_covered == pump.device.last_seq

    def test_a_lone_client_proposes_in_the_same_event(self, sent):
        kernel, leader, t0 = self.start(think=0.2e-3, clients=("a",))
        kernel.run(until=t0 + 0.7e-3)
        assert leader.store.pump.fsync_ends_at is not None  # device busy
        assert leader.proposer._hold is None
        assert rounds_of(sent) == [["a0"], ["a1"]]
        assert accept_batches(sent)[1].time == pytest.approx(t0 + 0.7e-3)

    def test_an_async_store_never_holds(self, sent, monkeypatch):
        holds = []
        pump = SequentialProposer._pump

        def recording(self):
            pump(self)
            holds.append(self._hold)

        monkeypatch.setattr(SequentialProposer, "_pump", recording)
        kernel, leader, t0 = self.start(think=0.2e-3, fsync_mode="async")
        kernel.run(until=t0 + 0.1)
        assert rounds_of(sent) == [["a0"], ["b0"], ["a1"], ["b1"]]
        assert holds and not any(holds)

    def test_stop_during_the_hold_cancels_it(self, sent):
        kernel, leader, t0 = self.start(think=5e-3)
        kernel.run(until=t0 + 0.6e-3)
        hold = leader.proposer._hold
        assert hold is not None and hold.active
        leader.proposer.stop()  # deposed while holding
        assert not hold.active
        kernel.run(until=t0 + 0.1)
        assert rounds_of(sent) == [["a0"]]
