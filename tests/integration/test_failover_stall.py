"""The Ω crash stall against its closed form (``analysis.model``).

The deployment is the benchmark suite's ``sim-failover`` shape: sysnet, Ω
with its default heartbeat, ``fsync="sync"``, four clients pacing KV writes
on a 5 ms gap, ``r0`` crashing at 1 s and recovering from its WAL at 2 s,
two trials per seed on seeds ``2·seed`` and ``2·seed + 1``. Each client
holds fewer writes than the suite's 600: the stall happens at the crash,
and the run still spans the rejoin at 2 s.

A write still unanswered when Ω suspects the leader (``detection_window``,
one missed heartbeat after the leader's last) is a stall, whatever its RRT:
the outage is now about one client timeout long, so a write sent just
after the crash stalls for less than one. Each stall must fit the window
``stall_windows`` names for it: an RRT that ends inside the ready window —
the new leader serves the write it holds — which is at most two quorum
rounds wide, and a retransmit count inside the predicted range. The count
must also be the one the client's backoff fits before the actual reply.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.model import (
    FailoverInputs,
    detection_window,
    ready_window,
    retransmit_window,
    stall_windows,
)
from repro.client.workload import Step
from repro.cluster.faults import FaultSchedule
from repro.cluster.harness import Cluster, ClusterSpec
from repro.net.profiles import sysnet
from repro.services.kvstore import KVStoreService
from repro.types import RequestKind

CRASH_AT = 1.0
CLIENT_TIMEOUT = 0.05
WRITES_PER_CLIENT = 400


def failover_trial(trial_seed: int) -> Cluster:
    rng = random.Random(trial_seed)
    steps = [
        [
            Step(
                requests=((RequestKind.WRITE, ("put", f"k{c}", rng.randrange(1 << 30))),),
                label="write",
                gap=0.005,
            )
            for _ in range(WRITES_PER_CLIENT)
        ]
        for c in range(4)
    ]
    spec = ClusterSpec(
        profile=sysnet(), seed=trial_seed, elector="omega", fsync="sync",
        track_commits=True, client_timeout=CLIENT_TIMEOUT,
    )
    cluster = Cluster(spec, steps, service_factory=KVStoreService)
    FaultSchedule(cluster).crash("r0", CRASH_AT).recover("r0", 2.0)
    cluster.run(max_time=120.0)
    return cluster


@pytest.mark.parametrize("seed", [11, 23, 5])
def test_every_crash_stall_fits_its_path(seed):
    for trial_seed in (2 * seed, 2 * seed + 1):
        cluster = failover_trial(trial_seed)
        assert cluster.metrics.counter_value("fault.crash") == 1
        assert cluster.metrics.counter_value("fault.recover") == 1
        spec = cluster.spec
        inputs = FailoverInputs(
            heartbeat_interval=spec.omega_heartbeat,
            client_timeout=spec.client_timeout,
            quorum_round=1.5e-3,
            backoff=spec.client_backoff,
            jitter=spec.client_jitter,
        )
        detected = detection_window(inputs, CRASH_AT)[0]
        ready_lo, ready_hi = ready_window(inputs, CRASH_AT)
        assert ready_hi - ready_lo <= 2 * inputs.quorum_round + 1e-12
        records = [r for client in cluster.clients for r in client.request_records()]
        stalls = [r for r in records if r.sent_at < detected < r.completed_at]
        # One write per client is in flight at the crash or sent during the
        # outage; boot and rejoin cost no stall.
        assert len(stalls) == len(cluster.clients)
        assert all(r.rrt <= CLIENT_TIMEOUT for r in records if r not in stalls)
        for record in stalls:
            assert ready_lo < record.completed_at <= ready_hi, (
                f"trial {trial_seed}: {record.rid} completed at "
                f"{record.completed_at:.6f} s, outside ({ready_lo:.6f}, {ready_hi:.6f}] s"
            )
            k_lo, k_hi, lo, hi = stall_windows(inputs, record.sent_at, CRASH_AT)["held"]
            assert lo - 1e-12 < record.rrt <= hi + 1e-12
            assert k_lo <= record.retransmits <= k_hi, (
                f"trial {trial_seed}: {record.rid} retransmitted "
                f"{record.retransmits} times, predicted {k_lo}..{k_hi}"
            )
            # Its last retransmit may have fallen before the reply, and the
            # next one may not have.
            k = record.retransmits
            assert record.sent_at + retransmit_window(inputs, k)[0] < record.completed_at
            assert record.sent_at + retransmit_window(inputs, k + 1)[1] > record.completed_at, (
                f"trial {trial_seed}: {record.rid} retransmitted {k} times, "
                f"too few for a reply at {record.completed_at:.6f} s"
            )
