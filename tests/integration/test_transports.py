"""The same protocol objects running on real (non-simulated) runtimes:
the threaded wall-clock runtime and the localhost TCP runtime."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.chaos.invariants import check_cluster

from repro.client.client import Client
from repro.client.workload import paper_txn_steps, single_kind_steps
from repro.core.config import ReplicaConfig
from repro.core.replica import Replica
from repro.election.static import StaticElector
from repro.net.latency import ConstantLatency
from repro.services.kvstore import KVStoreService
from repro.services.noop import NoopService
from repro.transport.local import LocalRuntime
from repro.transport.tcp import TcpRuntime
from repro.types import ReplyStatus, RequestKind

PEERS = ("r0", "r1", "r2")


def build_processes(steps, service_factory=NoopService, timeout=0.5):
    config = ReplicaConfig(peers=PEERS, accept_retry=0.2, prepare_retry=0.1)
    replicas = [
        Replica(pid, config, service_factory, StaticElector("r0")) for pid in PEERS
    ]
    client = Client(
        "c0", replicas=PEERS, steps=steps, timeout=timeout, wait_for_start=False
    )
    return replicas, client


class TestLocalRuntime:
    def run_steps(self, steps, service_factory=NoopService, latency=None):
        replicas, client = build_processes(steps, service_factory)
        runtime = LocalRuntime(latency=latency)
        for replica in replicas:
            runtime.add(replica)
        runtime.add(client)
        runtime.start()
        try:
            assert runtime.run_until(lambda: client.done, timeout=30.0)
        finally:
            runtime.shutdown()
        return replicas, client

    def test_writes_complete_on_wall_clock(self):
        _replicas, client = self.run_steps(single_kind_steps(RequestKind.WRITE, 10))
        assert client.completed_requests == 10
        assert all(r.status is ReplyStatus.OK for r in client.request_records())

    def test_reads_and_writes_with_latency_injection(self):
        steps = single_kind_steps(RequestKind.READ, 5) + single_kind_steps(
            RequestKind.WRITE, 5
        )
        _replicas, client = self.run_steps(steps, latency=ConstantLatency(0.005))
        assert client.completed_requests == 10

    def test_replicas_converge(self):
        steps = single_kind_steps(RequestKind.WRITE, 10, op=lambda i: ("put", i, i))
        replicas, client = self.run_steps(steps, service_factory=KVStoreService)
        import time

        time.sleep(0.1)  # let Chosen broadcasts land
        prints = {r.service.state_fingerprint() for r in replicas}
        assert len(prints) == 1
        # The invariant layer reads a bare-runtime deployment (standalone
        # Replicas, no Cluster) like a simulated one: benchmarks/suite does.
        deployment = SimpleNamespace(
            replicas={r.pid: r for r in replicas}, clients=[client], config=replicas[0].config
        )
        assert check_cluster(deployment) == []

    def test_transactions(self):
        _replicas, client = self.run_steps(paper_txn_steps("optimized", 3, 5))
        assert client.completed_steps == 5


class TestTcpRuntime:
    def run_steps(self, steps, service_factory=NoopService):
        replicas, client = build_processes(steps, service_factory)
        runtime = TcpRuntime()
        for replica in replicas:
            runtime.add(replica)
        runtime.add(client)
        runtime.start()
        try:
            assert runtime.run_until(lambda: client.done, timeout=30.0)
        finally:
            runtime.shutdown()
        return runtime, replicas, client

    def test_writes_over_real_sockets(self):
        runtime, _replicas, client = self.run_steps(
            single_kind_steps(RequestKind.WRITE, 10)
        )
        assert client.completed_requests == 10
        assert runtime.messages_sent > 0 and runtime.bytes_sent > 0

    def test_xpaxos_reads_over_real_sockets(self):
        _runtime, _replicas, client = self.run_steps(
            single_kind_steps(RequestKind.READ, 10)
        )
        assert client.completed_requests == 10

    def test_kvstore_replication_over_tcp(self):
        steps = single_kind_steps(RequestKind.WRITE, 8, op=lambda i: ("put", i, i))
        _runtime, replicas, _client = self.run_steps(steps, service_factory=KVStoreService)
        import time

        time.sleep(0.2)
        prints = {r.service.state_fingerprint() for r in replicas}
        assert len(prints) == 1

    def test_transactions_over_tcp(self):
        _runtime, _replicas, client = self.run_steps(paper_txn_steps("optimized", 3, 3))
        assert client.completed_steps == 3
