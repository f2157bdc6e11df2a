#!/usr/bin/env python3
"""The distributed grid resource broker (§2, first example).

A broker that places tasks with a *randomized* load-balancing algorithm
(power-of-two-choices). This script demonstrates the paper's motivating
problem and its solution side by side:

1. replicate the broker with classic Multi-Paxos (ship the request,
   re-execute everywhere) — the replicas draw from independent random
   streams and **diverge**;
2. replicate it with the paper's protocol in REPRO mode (ship the leader's
   placement decision) — the replicas stay **identical**, while the leader
   still balances load randomly.

Run:  python examples/resource_broker.py
"""

from __future__ import annotations

from collections import Counter

from repro import Cluster, ClusterSpec, RequestKind, StateTransferMode, sysnet
from repro.client.workload import single_kind_steps
from repro.services.broker import ResourceBrokerService

N_NODES = 6
N_TASKS = 48


def broker_factory() -> ResourceBrokerService:
    service = ResourceBrokerService()
    for i in range(N_NODES):
        service.resources[f"node{i}"] = [1000.0, 0.0]
    return service


def run(mode: StateTransferMode) -> Cluster:
    steps = single_kind_steps(
        RequestKind.WRITE, N_TASKS, op=lambda i: ("request", f"task{i}", 10)
    )
    spec = ClusterSpec(profile=sysnet(), seed=7, state_mode=mode)
    cluster = Cluster(spec, [steps], service_factory=broker_factory)
    cluster.run()
    cluster.drain(1.0)
    return cluster


def describe(cluster: Cluster) -> None:
    for pid, replica in sorted(cluster.group_replicas().items()):
        placements = replica.service.placements
        load = Counter(resource for resource, _demand in placements.values())
        row = "  ".join(f"{node}:{load.get(node, 0):2d}" for node in sorted(
            cluster.leader().service.resources
        ))
        print(f"  {pid}: {row}")


def main() -> None:
    print(f"placing {N_TASKS} tasks on {N_NODES} nodes, randomized broker\n")

    print("--- Multi-Paxos baseline (SMR: replicas re-execute the request) ---")
    smr = run(StateTransferMode.SMR)
    describe(smr)
    fingerprints = set(smr.replica_fingerprints().values())
    print(f"  distinct replica states: {len(fingerprints)}  (diverged!)\n")
    assert len(fingerprints) > 1

    print("--- the paper's protocol (REPRO: ship the leader's decision) ---")
    nd = run(StateTransferMode.REPRO)
    describe(nd)
    fingerprints = set(nd.replica_fingerprints().values())
    print(f"  distinct replica states: {len(fingerprints)}  (consistent)")
    assert len(fingerprints) == 1

    # The randomized balancing still happened: load is spread.
    load = Counter(
        resource for resource, _d in nd.leader().service.placements.values()
    )
    print(f"  nodes used by the leader's random placement: {len(load)}/{N_NODES}")
    assert len(load) > 1


if __name__ == "__main__":
    main()
