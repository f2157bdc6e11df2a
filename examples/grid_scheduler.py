#!/usr/bin/env python3
"""The grid scheduling service (§2, second example — the NILE planner).

An FCFS-with-priority scheduler is nondeterministic even though it uses no
randomness: whether a late high-priority job overtakes an earlier job
depends on *when* the scheduler examines its queue. This script:

1. shows the raw nondeterminism on two standalone service copies examining
   the queue at different times (the paper's Job A / Job B scenario);
2. replicates the scheduler with the paper's protocol (REPRO mode: the
   chosen job id is the reproduction info) and shows that all replicas
   agree on every scheduling decision — the prerequisite for policies like
   load balancing that need to know previous assignments.

Run:  python examples/grid_scheduler.py
"""

from __future__ import annotations

import random

from repro import Cluster, ClusterSpec, RequestKind, StateTransferMode, Step, sysnet
from repro.services.base import ExecutionContext
from repro.services.gridsched import GridSchedulerService


def standalone_demo() -> None:
    print("--- the §2 scenario on unsynchronized copies ---")

    def build() -> GridSchedulerService:
        service = GridSchedulerService()
        ctx1 = ExecutionContext(rng=random.Random(0), now=1.0)
        service.execute(("submit", "JobA", 0), ctx1)      # arrives at t=1
        ctx2 = ExecutionContext(rng=random.Random(0), now=2.0)
        service.execute(("submit", "JobB", 5), ctx2)      # t=2, higher prio
        return service

    fast = build()
    picked_fast = fast.execute(
        ("dispatch",), ExecutionContext(rng=random.Random(0), now=1.5)
    ).reply
    slow = build()
    picked_slow = slow.execute(
        ("dispatch",), ExecutionContext(rng=random.Random(0), now=3.0)
    ).reply
    print(f"  scheduler examining at t=1.5 picks: {picked_fast}")
    print(f"  scheduler examining at t=3.0 picks: {picked_slow}")
    print("  same requests, different outcomes -> nondeterministic\n")
    assert picked_fast == "JobA" and picked_slow == "JobB"


def replicated_demo() -> None:
    print("--- replicated with the paper's protocol (REPRO mode) ---")
    steps: list[Step] = []
    for i in range(12):
        steps.append(
            Step(requests=((RequestKind.WRITE, ("submit", f"job{i:02d}", i % 4)),))
        )
    for _ in range(8):
        steps.append(Step(requests=((RequestKind.WRITE, ("dispatch",)),)))
    steps.append(Step(requests=((RequestKind.READ, ("done",)),)))

    spec = ClusterSpec(
        profile=sysnet(), seed=3, state_mode=StateTransferMode.REPRO
    )
    cluster = Cluster(spec, [steps], service_factory=GridSchedulerService)
    cluster.run()
    cluster.drain(1.0)

    dispatch_order = cluster.clients[0].request_records()[-1].value
    print(f"  dispatch order decided by the leader: {dispatch_order}")

    orders = {
        pid: tuple(replica.service.dispatched)
        for pid, replica in cluster.group_replicas().items()
    }
    assert len(set(orders.values())) == 1
    print(f"  all replicas agree on the schedule: {sorted(orders)}  [ok]")
    # Priorities were honored among jobs visible at each dispatch.
    print("  (priority 3 jobs drained before priority 0 stragglers)")


def main() -> None:
    standalone_demo()
    replicated_demo()


if __name__ == "__main__":
    main()
