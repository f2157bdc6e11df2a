#!/usr/bin/env python3
"""The protocol stack over real TCP sockets on localhost.

The paper's prototype used TCP between all processes (§4). This script
runs the *same* replica and client objects used in the simulator on the
:class:`repro.transport.tcp.TcpRuntime` — every message is packed by its
compiled field plan, length-prefixed and shipped over a real localhost
socket — and reports wall-clock latencies.

Run:  python examples/real_tcp.py
"""

from __future__ import annotations

import statistics
import time

from repro.client.client import Client
from repro.client.workload import single_kind_steps, txn_steps
from repro.core.config import ReplicaConfig
from repro.core.replica import Replica
from repro.election.static import StaticElector
from repro.services.kvstore import KVStoreService
from repro.transport.tcp import TcpRuntime
from repro.types import RequestKind

PEERS = ("r0", "r1", "r2")
N_WRITES = 50


def main() -> None:
    config = ReplicaConfig(peers=PEERS, accept_retry=0.2, prepare_retry=0.1)
    runtime = TcpRuntime()
    replicas = []
    for pid in PEERS:
        replica = Replica(pid, config, KVStoreService, StaticElector("r0"))
        runtime.add(replica)
        replicas.append(replica)

    steps = (
        single_kind_steps(RequestKind.WRITE, N_WRITES, op=lambda i: ("put", i, i))
        + single_kind_steps(RequestKind.READ, N_WRITES, op=lambda i: ("get", i))
        + txn_steps(10, lambda t: [("put", f"txn{t}", j) for j in range(3)], optimized=True)
    )
    client = Client("c0", replicas=PEERS, steps=steps, timeout=1.0, wait_for_start=False)
    runtime.add(client)

    print("starting 3 replicas + 1 client over localhost TCP ...")
    runtime.start()
    t0 = time.monotonic()
    try:
        ok = runtime.run_until(lambda: client.done, timeout=60.0)
        assert ok, "run did not finish"
        elapsed = time.monotonic() - t0
        time.sleep(0.2)  # let the final Chosen broadcasts land
    finally:
        runtime.shutdown()

    rrts = client.rrts()
    print(f"completed {client.completed_requests} requests in {elapsed:.2f}s wall clock")
    print(
        f"RRT over real sockets: median {statistics.median(rrts) * 1e3:.2f} ms, "
        f"p95 {sorted(rrts)[int(len(rrts) * 0.95)] * 1e3:.2f} ms"
    )
    print(
        f"transport: {runtime.messages_sent} messages, "
        f"{runtime.bytes_sent / 1024:.1f} KiB shipped"
    )

    fingerprints = {r.pid: r.service.state_fingerprint() for r in replicas}
    assert len(set(fingerprints.values())) == 1
    print(f"replica stores identical across {sorted(fingerprints)}  [ok]")


if __name__ == "__main__":
    main()
