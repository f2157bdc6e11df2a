"""Message complexity per request — the protocol analysis behind §3.4.

Counts the messages each protocol variant exchanges per request (and per
transaction) in the failure-free common case, on a quiet cluster (one
closed-loop client, so pipeline batching does not amortize anything and
the counts are the per-request protocol cost):

* original: request to all replicas + 1 reply.
* X-Paxos read: request to all + (n-1) confirms + 1 reply.
* basic write: request to all + accept round to (n-1) + (n-1) acks +
  chosen to (n-1) + 1 reply.
* T-Paxos: per-op cost of original, one write-like commit per txn.

Also reports the Fast Paxos §5 comparison analytically: message *delays*
on the client's critical path (3 for classic, 2 for fast).
"""

from __future__ import annotations

import pytest

from benchmarks._util import emit
from repro.client.workload import paper_txn_steps, single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.types import RequestKind
from repro.util.tables import format_table
from tests.conftest import make_test_profile

N = 3


def messages_per_request(kind: str, count: int = 40) -> float:
    spec = ClusterSpec(profile=make_test_profile(), seed=2, client_timeout=0.5)
    if kind == "txn":
        steps = paper_txn_steps("optimized", 3, count)
    else:
        steps = single_kind_steps(RequestKind(kind), count)
    cluster = Cluster(spec, [steps])
    cluster.run()
    cluster.drain(0.5)
    total = cluster.network.total_messages()
    # Subtract the protocol's ambient traffic (startup recovery, frontier
    # probes, start signals) by measuring a zero-request baseline run.
    baseline_cluster = Cluster(spec, [[]])
    baseline_cluster.run()
    baseline_cluster.drain(0.5)
    baseline = baseline_cluster.network.total_messages()
    return (total - baseline) / count


EXPECTED = {
    # kind: (formula, expected message count for n=3)
    "original": ("n + 1", N + 1),
    "read": ("n + (n-1) + 1", N + (N - 1) + 1),
    "write": ("n + 3(n-1) + 1", N + 3 * (N - 1) + 1),
}


def compute():
    rows = []
    measured = {}
    for kind, (formula, expected) in EXPECTED.items():
        value = messages_per_request(kind)
        measured[kind] = value
        rows.append([kind, formula, expected, f"{value:.2f}"])
    txn = messages_per_request("txn")
    expected_txn = 3 * (N + 1) + (N + 3 * (N - 1) + 1)
    measured["txn"] = txn
    rows.append(["T-Paxos 3-op txn", "3(n+1) + write", expected_txn, f"{txn:.2f}"])
    text = (
        "Message complexity per request (n = 3, failure-free, quiet pipeline)\n"
        + format_table(["request", "formula", "expected", "measured"], rows)
        + "\n\nCritical-path message delays (§5): classic Paxos write = 3 "
        "(client->leader->acceptors->leader->client counts 4 hops but 3 "
        "delays before commit knowledge), Fast Paxos = 2 "
        "(client->acceptors->learner) — at the cost of n >= 3f+1 replicas "
        "and collision recovery."
    )
    return text, measured


@pytest.mark.benchmark(group="messages")
def test_message_complexity(once):
    text, measured = once(compute)
    emit("message_complexity", text,
         data={"messages_per_request": measured},
         metrics={f"{kind}_msgs_per_req": {"value": measured[kind],
                                           "unit": "msg", "direction": "lower"}
                  for kind in measured},
         profile="test", protocol="all")
    for kind, (_formula, expected) in EXPECTED.items():
        assert measured[kind] == pytest.approx(expected, abs=0.6)
    assert measured["txn"] == pytest.approx(3 * (N + 1) + (N + 3 * (N - 1) + 1), abs=1.5)
