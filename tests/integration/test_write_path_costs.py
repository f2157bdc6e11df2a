"""What one replicated write leaves behind, counted exactly (no wall clock).

The write path promises two things a timing could only hint at: a committed
write frees everything it allocated by reference count (nothing is left for
the cyclic collector), and every replica appends exactly two WAL records
for it — its accept and its choose. Both are statements about counts the
program makes itself, so they are asserted as equalities, not floors.
"""

from __future__ import annotations

import gc

import pytest

from repro.client.workload import single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.net.profiles import sysnet
from repro.types import RequestKind, ReplyStatus

CLIENTS = 2


def run_writes(per_client: int, **spec: object) -> tuple[Cluster, int]:
    """A 3-replica write run with the collector off; returns the cluster
    and how many unreachable objects the collector then found."""
    cluster = Cluster(
        ClusterSpec(profile=sysnet(), seed=5, **spec),
        [single_kind_steps(RequestKind.WRITE, per_client) for _ in range(CLIENTS)],
    )
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        cluster.run()
        found = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    records = [r for client in cluster.clients for r in client.request_records()]
    assert len(records) == CLIENTS * per_client
    assert all(r.status is ReplyStatus.OK for r in records)
    return cluster, found


def appends(cluster: Cluster) -> dict[str, int]:
    return {
        name.split(".")[1]: value
        for name, value in cluster.metrics.counters().items()
        if name.endswith(".storage.appends")
    }


@pytest.mark.parametrize("spec", [{}, {"execute_time": 1e-4}], ids=["E=0", "E>0"])
def test_cyclic_garbage_does_not_scale_with_requests(spec):
    """300 more writes per client, not one more object for the collector
    (the closure-built write item left 16 per write)."""
    _small, garbage_small = run_writes(50, **spec)
    _large, garbage_large = run_writes(200, **spec)
    assert garbage_large == garbage_small


def test_two_appends_per_committed_write_on_every_replica():
    """Leader: its own accept + choose. Backup: the accept from the
    AcceptBatch + choose — not a second accept record when the ChosenBatch
    names the ballot it already holds."""
    small = appends(run_writes(50)[0])
    large = appends(run_writes(200)[0])
    assert set(small) == {"r0", "r1", "r2"}
    extra_writes = CLIENTS * (200 - 50)
    assert {pid: large[pid] - small[pid] for pid in small} == dict.fromkeys(
        small, 2 * extra_writes
    )
