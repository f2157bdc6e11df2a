"""The Ω crash stall against its closed form (``analysis.model.stall_windows``).

The deployment is the benchmark suite's ``sim-failover`` shape: sysnet, Ω
with its default timers, ``fsync="sync"``, four clients pacing KV writes on
a 5 ms gap, ``r0`` crashing at 1 s and recovering from its WAL at 2 s, two
trials per seed on seeds ``2·seed`` and ``2·seed + 1``. Each client holds
fewer writes than the suite's 600: the stall happens at the crash, and the
run still spans the rejoin at 2 s.

Every write slower than one client timeout is a stall. Its RRT must fall in
the window of the one completion path — the new leader serves the write it
holds — and its retransmit count must be that path's. Each window is at
most two quorum rounds wide: detection is the Ω deadline itself, and the
writes complete within a prepare round and the accept rounds after it.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.model import FailoverInputs, detection_window, stall_windows
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
            suspect_timeout=spec.omega_timeout,
            client_timeout=spec.client_timeout,
            quorum_round=1.5e-3,
            backoff=spec.client_backoff,
            jitter=spec.client_jitter,
        )
        stalls = [
            r
            for client in cluster.clients
            for r in client.request_records()
            if r.rrt > CLIENT_TIMEOUT
        ]
        # One write per client is in flight at the crash or sent during the
        # outage; boot and rejoin cost no stall.
        assert len(stalls) == len(cluster.clients)
        for record in stalls:
            assert record.completed_at > CRASH_AT
            assert record.sent_at < detection_window(inputs, CRASH_AT)[0]
            windows = stall_windows(inputs, record.sent_at, CRASH_AT)
            path = next(
                (name for name, (k, _lo, _hi) in windows.items() if k == record.retransmits),
                None,
            )
            assert path is not None, (
                f"trial {trial_seed}: {record.rid} retransmitted {record.retransmits} "
                f"times, which fits no path of {windows}"
            )
            _k, lo, hi = windows[path]
            assert hi - lo <= 2 * inputs.quorum_round + 1e-12
            assert lo < record.rrt <= hi, (
                f"trial {trial_seed}: {record.rid} on the {path} path took "
                f"{record.rrt * 1e3:.3f} ms, outside ({lo * 1e3:.3f}, {hi * 1e3:.3f}] ms"
            )
