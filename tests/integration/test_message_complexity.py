"""Message-complexity conformance: the per-type counters must match the
protocol analysis of §3.4 *exactly* in the failure-free case.

On the featureless test profile (constant latency, no loss, free CPUs, one
closed-loop client) there are no retransmits and no ambient traffic inside
the measured window, so the counts are sharp:

* original:     n requests + 1 reply
* X-Paxos read: n requests + (n-1) confirms + 1 reply
* basic write:  n requests + (n-1) accepts + (n-1) acks + (n-1) chosen + 1 reply

Startup recovery on an empty log runs a Prepare/Promise round but proposes
nothing, so the Accept-family counters are purely per-request traffic.
"""

from __future__ import annotations

import pytest

from repro.client.workload import paper_txn_steps, single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.types import RequestKind
from tests.conftest import make_test_profile

R = 20  # requests per run; short enough that no frontier probe fires


def run_kind(kind: RequestKind, n_replicas: int = 3) -> Cluster:
    spec = ClusterSpec(profile=make_test_profile(), n_replicas=n_replicas, seed=2)
    return Cluster(spec, [single_kind_steps(kind, R)]).run()


class TestWriteComplexity:
    @pytest.mark.parametrize("n", [3, 5])
    def test_accept_family_counts(self, n):
        counters = run_kind(RequestKind.WRITE, n_replicas=n).metrics
        assert counters.counter_value("msg.send.AcceptBatch") == R * (n - 1)
        assert counters.counter_value("msg.send.AcceptedBatch") == R * (n - 1)
        assert counters.counter_value("msg.send.ChosenBatch") == R * (n - 1)
        assert counters.counter_value("msg.send.ClientRequest") == R * n
        assert counters.counter_value("msg.send.Reply") == R
        # Failure-free run on a lossless network: everything delivered.
        assert counters.counter_value("msg.deliver.AcceptBatch") == R * (n - 1)
        assert sum(counters.counters("msg.drop.").values()) == 0

    def test_total_matches_table_formula(self):
        n = 3
        cluster = run_kind(RequestKind.WRITE, n_replicas=n)
        counters = cluster.metrics
        protocol = sum(
            counters.counter_value(f"msg.send.{t}")
            for t in ("ClientRequest", "AcceptBatch", "AcceptedBatch", "ChosenBatch", "Reply")
        )
        assert protocol == R * (n + 3 * (n - 1) + 1)  # n=3: 10 per request

    def test_per_process_split(self):
        n = 3
        cluster = run_kind(RequestKind.WRITE, n_replicas=n)
        counters = cluster.metrics
        # Only the leader proposes and replies.
        assert counters.counter_value("proc.r0.send.AcceptBatch") == R * (n - 1)
        assert counters.counter_value("proc.r0.send.ChosenBatch") == R * (n - 1)
        assert counters.counter_value("proc.r0.send.Reply") == R
        # Each backup acks every accept round once.
        for pid in ("r1", "r2"):
            assert counters.counter_value(f"proc.{pid}.send.AcceptedBatch") == R
            assert counters.counter_value(f"proc.{pid}.send.AcceptBatch") == 0


class TestReadComplexity:
    def test_xpaxos_read_counts(self):
        n = 3
        counters = run_kind(RequestKind.READ, n_replicas=n).metrics
        assert counters.counter_value("msg.send.ClientRequest") == R * n
        assert counters.counter_value("msg.send.Confirm") == R * (n - 1)
        assert counters.counter_value("msg.send.Reply") == R
        # Reads are never ordered: no accept rounds at all.
        assert counters.counter_value("msg.send.AcceptBatch") == 0
        assert counters.counter_value("msg.send.ChosenBatch") == 0


class TestOriginalComplexity:
    def test_unreplicated_baseline_counts(self):
        n = 3
        counters = run_kind(RequestKind.ORIGINAL, n_replicas=n).metrics
        assert counters.counter_value("msg.send.ClientRequest") == R * n
        assert counters.counter_value("msg.send.Reply") == R
        assert counters.counter_value("msg.send.AcceptBatch") == 0
        assert counters.counter_value("msg.send.Confirm") == 0


class TestTransactionComplexity:
    def test_one_consensus_instance_per_txn(self):
        n, txns, ops = 3, 10, 3
        spec = ClusterSpec(profile=make_test_profile(), n_replicas=n, seed=2)
        cluster = Cluster(spec, [paper_txn_steps("optimized", ops, txns)]).run()
        counters = cluster.metrics
        # T-Paxos's whole point: ops replicate nothing; only the commit
        # runs a write-shaped accept round — one instance per transaction.
        assert counters.counter_value("msg.send.AcceptBatch") == txns * (n - 1)
        assert counters.counter_value("msg.send.AcceptedBatch") == txns * (n - 1)
        assert counters.counter_value("msg.send.ChosenBatch") == txns * (n - 1)
        # ops + commit each: client broadcast to n, one reply.
        requests_per_txn = ops + 1
        assert counters.counter_value("msg.send.ClientRequest") == txns * requests_per_txn * n
        assert counters.counter_value("msg.send.Reply") == txns * requests_per_txn
        assert counters.counter_value("proc.r0.g0.tpaxos.commits") == txns
