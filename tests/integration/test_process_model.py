"""One replica process for every ``groups`` value, checked two ways.

* ``Cluster(groups=1)`` (GroupHost processes, enveloped peer traffic)
  against the reference: a hand-wired World of three standalone
  :class:`~repro.core.replica.Replica` processes and the same clients.
  Chosen logs, every client's reply/RRT sequence and the final clock must
  be equal, bit for bit — the envelope and the host add no event.
* The envelope is invisible to every observer: no metric, trace event,
  span, profiler frame or report row is named after it, and the world's
  per-type send totals are the sum of the per-group rows.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.client.client import Client
from repro.client.workload import paper_txn_steps, single_kind_steps
from repro.cluster.harness import START_AT, Cluster, ClusterSpec, Starter
from repro.core.config import ReplicaConfig
from repro.core.replica import Replica
from repro.election.static import StaticElector
from repro.net.network import SimNetwork
from repro.obs.handle import Obs
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_report
from repro.obs.timeline import load_export
from repro.services.kvstore import KVStoreService
from repro.services.noop import NoopService
from repro.sim.kernel import Kernel
from repro.sim.world import World
from repro.types import RequestKind
from tests.conftest import make_test_profile

N_CLIENTS = 3


def reference_run(
    spec: ClusterSpec, config: ReplicaConfig, client_steps
) -> tuple[dict, list, float]:
    """The deployment ``Cluster(spec, client_steps)`` describes (``config``
    is that cluster's), wired by hand from standalone Replicas and run the
    way ``Cluster.run`` runs."""
    replica_pids = tuple(f"r{i}" for i in range(spec.n_replicas))
    client_pids = tuple(f"c{i}" for i in range(len(client_steps)))
    profile = spec.profile
    topology = profile.build_topology(replica_pids, client_pids)
    topology.place("starter", topology.site_of(replica_pids[0]))
    obs = Obs(metrics=MetricsRegistry())
    kernel = Kernel(seed=spec.seed, obs=obs)
    world = World(
        kernel, SimNetwork(topology, seed=spec.seed, obs=obs), obs=obs, measure_bytes=True
    )
    replicas = {}
    for pid in replica_pids:
        replica = Replica(
            pid, config, NoopService, StaticElector(replica_pids[0]), obs=obs.scoped(pid)
        )
        world.add(replica, cpu=profile.replica_cpu_for(len(client_steps)))
        replicas[pid] = replica
    clients = []
    for pid, steps in zip(client_pids, client_steps, strict=True):
        client = Client(
            pid, replicas=replica_pids, steps=steps, timeout=spec.client_timeout,
            wait_for_start=True, obs=obs,
        )
        world.add(client, cpu=profile.client_cpu)
        clients.append(client)
    world.add(Starter("starter", client_pids, at=START_AT), cpu=profile.client_cpu)
    world.start()
    while not all(c.done for c in clients):
        assert kernel.now < 60.0
        kernel.run(until=kernel.now + 0.05)
    return replicas, clients, kernel.now


def observed(replicas, clients, now: float):
    logs = {pid: r.log.chosen_items() for pid, r in replicas.items()}
    replies = {
        c.pid: [
            (r.rid, r.status, r.value, r.sent_at, r.completed_at)
            for r in c.request_records()
        ]
        for c in clients
    }
    return logs, replies, now


WORKLOADS = {
    "basic": lambda: single_kind_steps(RequestKind.WRITE, 12),
    "xpaxos": lambda: single_kind_steps(RequestKind.READ, 12),
    "tpaxos": lambda: paper_txn_steps("optimized", 3, 5),
}


@pytest.mark.parametrize("execute_time", [0.0, 1e-3], ids=["E=0", "E=1ms"])
@pytest.mark.parametrize("protocol", WORKLOADS)
def test_groups_1_equals_three_standalone_replicas(protocol, execute_time):
    spec = ClusterSpec(profile=make_test_profile(), seed=5, execute_time=execute_time)
    steps = [WORKLOADS[protocol]() for _ in range(N_CLIENTS)]
    cluster = Cluster(spec, steps).run(check_interval=0.05)
    reference = reference_run(
        spec, cluster.config, [WORKLOADS[protocol]() for _ in range(N_CLIENTS)]
    )

    got = observed(cluster.group_replicas(), cluster.clients, cluster.kernel.now)
    want = observed(*reference)
    assert got[0] == want[0] and any(want[0].values()) == (protocol != "xpaxos")
    assert got[1] == want[1] and all(want[1].values())
    assert got[2] == want[2]


GROUP_SEND = re.compile(r"^proc\.(r\d+)\.g(\d+)\.send\.(\w+)$")


@pytest.mark.parametrize("groups", [1, 2])
def test_envelope_is_invisible_to_every_observer(groups, tmp_path):
    spec = ClusterSpec(
        profile=make_test_profile(), seed=3, groups=groups,
        trace=True, tracing=True, profiling=True,
    )
    steps = [
        single_kind_steps(
            RequestKind.WRITE, 8, op=lambda i, c=c: ("put", f"k{c}{i % 4}", i)
        )
        for c in range(N_CLIENTS)
    ]
    cluster = Cluster(spec, steps, service_factory=KVStoreService).run().drain()

    # Metric and span names land in the timeline export, and the report
    # renders its rows from it; trace events and profiler frames stay in
    # memory.
    path = cluster.export_timeline(str(tmp_path / "run.jsonl"))
    exported = Path(path).read_text(encoding="utf-8")
    report = render_report(load_export(path))
    events = [e.detail if isinstance(e.detail, str) else type(e.detail).__name__
              for e in cluster.trace]
    frames = [";".join(frame) for frame in cluster.profiler.frames()]
    for observed_names in (exported, report, "\n".join(events), "\n".join(frames)):
        assert "GroupEnvelope" not in observed_names
    assert "msg.AcceptBatch" in exported
    assert "AcceptBatch" in events
    assert any(frame.endswith(";recv.AcceptBatch.replica") for frame in frames)
    assert any(frame.endswith(";send.AcceptedBatch.replica") for frame in frames)
    row = re.search(r"^AcceptBatch\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)", report, re.M)
    assert row and int(row[1]) == int(row[2]) > 0 and int(row[4]) > 0

    # The world counts per type, each group counts what it enveloped.
    counters = cluster.metrics.counters()
    by_type: dict[str, int] = {}
    senders = set()
    for name, value in counters.items():
        match = GROUP_SEND.match(name)
        if match:
            by_type[match[3]] = by_type.get(match[3], 0) + value
            senders.add(int(match[2]))
    assert senders == set(range(groups))
    assert {"AcceptBatch", "AcceptedBatch", "ChosenBatch", "Prepare", "Promise"} <= set(by_type)
    for type_name, total in by_type.items():
        assert counters[f"msg.send.{type_name}"] == total, type_name
