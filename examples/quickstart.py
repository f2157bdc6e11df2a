#!/usr/bin/env python3
"""Quickstart: replicate a key-value store and survive a leader crash.

Builds a three-replica cluster on the simulated Sysnet profile with the
Ω heartbeat elector, runs a closed-loop client issuing writes and X-Paxos
reads, crashes the leader mid-run, and shows that:

* every acknowledged request executed exactly once,
* a new leader took over automatically,
* all surviving replicas converged to the same store contents.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Cluster, ClusterSpec, RequestKind, Step, sysnet
from repro.cluster.faults import FaultSchedule
from repro.cluster.metrics import collect
from repro.services.kvstore import KVStoreService


def main() -> None:
    # A workload of alternating writes and reads against one key space.
    steps: list[Step] = []
    for i in range(40):
        steps.append(Step(requests=((RequestKind.WRITE, ("put", f"key{i % 8}", i)),)))
        steps.append(Step(requests=((RequestKind.READ, ("get", f"key{i % 8}")),)))

    spec = ClusterSpec(
        profile=sysnet(),
        seed=42,
        elector="omega",            # automatic failover via heartbeats
        omega_heartbeat=0.01,
        client_timeout=0.08,
    )
    cluster = Cluster(spec, [steps], service_factory=KVStoreService)

    # Crash the initial leader a few milliseconds into the run.
    FaultSchedule(cluster).crash_leader(at=0.004)

    cluster.run(max_time=60.0)
    cluster.drain(1.0)
    result = collect(cluster)

    print("=== quickstart: replicated KV store with leader crash ===")
    print(result.describe())
    print(f"retransmits while failing over: {result.total_retransmits}")

    # Reads always reflect the latest acknowledged write.
    records = cluster.clients[0].request_records()
    for i in range(40):
        write, read = records[2 * i], records[2 * i + 1]
        assert read.value == i, f"stale read: wrote {i}, read {read.value}"
    print("every read returned the latest committed write  [ok]")

    survivors = {
        pid: replica
        for pid, replica in cluster.group_replicas().items()
        if replica.alive
    }
    leader = [pid for pid, r in survivors.items() if r.is_leading]
    print(f"new leader after crash: {leader[0]} (was {cluster.leader_pid})")

    fingerprints = {pid: r.service.state_fingerprint() for pid, r in survivors.items()}
    assert len(set(fingerprints.values())) == 1
    print(f"surviving replicas converged: {sorted(fingerprints)}  [ok]")
    store = survivors[leader[0]].service.data
    print(f"final store (8 keys): { {k: store[k] for k in sorted(store)} }")


if __name__ == "__main__":
    main()
