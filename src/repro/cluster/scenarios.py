"""Canned runners for the paper's experiments (§4) and its ablations.

Each function builds a cluster against a named profile, runs one workload
shape, and returns the collected :class:`RunResult`. Its keyword arguments
are JSON-ready, so ``repro.parallel.tasks`` registers each as a sweep task
and the ``repro.experiments`` records are written in terms of them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace
from typing import Any

from repro.client.openloop import OpenLoopClient
from repro.client.workload import Step, paper_txn_steps, single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.cluster.harness import Cluster, ClusterSpec
from repro.cluster.metrics import RunResult, collect
from repro.net.latency import LogNormalLatency
from repro.net.link import LinkSpec
from repro.net.profiles import NetworkProfile, flat, get_profile, sysnet
from repro.net.topology import Topology
from repro.services.counter import CounterService
from repro.services.kvstore import KVStoreService
from repro.services.noop import NoopService
from repro.sim.cpu import CpuProfile
from repro.transport.codec import wire_size
from repro.types import ProcessId, RequestKind, StateTransferMode
from repro.util.stats import summarize


def _resolve_profile(profile: str | NetworkProfile) -> NetworkProfile:
    if isinstance(profile, NetworkProfile):
        return profile
    return get_profile(profile)


def _resolve_kind(kind: str | RequestKind) -> RequestKind:
    if isinstance(kind, RequestKind):
        return kind
    return RequestKind(kind)


def rrt_scenario(
    profile: str | NetworkProfile,
    kind: str | RequestKind,
    samples: int = 200,
    seed: int = 0,
    **spec_overrides: Any,
) -> RunResult:
    """Request response time: one closed-loop client, ``samples`` requests
    (the paper used 1 client x 20 requests x hundreds of sample runs; one
    long run gives the same mean with tighter machinery)."""
    profile = _resolve_profile(profile)
    kind = _resolve_kind(kind)
    spec = ClusterSpec(profile=profile, seed=seed, **spec_overrides)
    steps = single_kind_steps(kind, samples)
    cluster = Cluster(spec, [steps])
    cluster.run()
    return collect(cluster)


def throughput_scenario(
    profile: str | NetworkProfile,
    kind: str | RequestKind,
    n_clients: int,
    total_requests: int = 1000,
    seed: int = 0,
    **spec_overrides: Any,
) -> RunResult:
    """Service throughput: ``n_clients`` concurrent closed-loop clients,
    each sending ``total_requests / n_clients`` requests (§4: "each client
    sends exactly 1000/c requests")."""
    profile = _resolve_profile(profile)
    kind = _resolve_kind(kind)
    per_client = max(1, total_requests // n_clients)
    spec = ClusterSpec(profile=profile, seed=seed, **spec_overrides)
    steps = [single_kind_steps(kind, per_client) for _ in range(n_clients)]
    cluster = Cluster(spec, steps)
    cluster.run()
    return collect(cluster)


def txn_rrt_scenario(
    mode: str,
    requests_per_txn: int,
    samples: int = 100,
    profile: str | NetworkProfile = "sysnet",
    seed: int = 0,
    **spec_overrides: Any,
) -> RunResult:
    """Transaction response time (Table 1): one client, ``samples``
    transactions of ``mode`` in {read_write, write_only, optimized}."""
    profile = _resolve_profile(profile)
    spec = ClusterSpec(profile=profile, seed=seed, **spec_overrides)
    steps = paper_txn_steps(mode, requests_per_txn, samples)
    cluster = Cluster(spec, [steps])
    cluster.run()
    return collect(cluster)


def txn_throughput_scenario(
    mode: str,
    requests_per_txn: int,
    n_clients: int,
    total_txns: int = 500,
    profile: str | NetworkProfile = "sysnet",
    seed: int = 0,
    **spec_overrides: Any,
) -> RunResult:
    """Transaction throughput (Fig. 9): ``n_clients`` concurrent clients
    splitting ``total_txns`` transactions."""
    profile = _resolve_profile(profile)
    per_client = max(1, total_txns // n_clients)
    spec = ClusterSpec(profile=profile, seed=seed, **spec_overrides)
    steps = [paper_txn_steps(mode, requests_per_txn, per_client) for _ in range(n_clients)]
    cluster = Cluster(spec, steps)
    cluster.run()
    return collect(cluster)


# ------------------------------------------------------------------ ablations
def _one_client_steps(workload: str, count: int) -> list[Step]:
    """``count`` requests of one kind or, for ``txn``, that many
    three-request T-Paxos transactions."""
    if workload == "txn":
        return paper_txn_steps("optimized", 3, count)
    return single_kind_steps(RequestKind(workload), count)


def fsync_modes_scenario(
    fsync: str, n_clients: int = 8, per_client: int = 25, seed: int = 0
) -> RunResult:
    """The price of durability barriers: concurrent closed-loop counter
    increments under one fsync discipline (group commit amortizes across
    *concurrent* barriers). ``fsyncs`` and ``appends`` are device totals
    over every replica."""
    spec = ClusterSpec(profile=flat(), seed=seed, client_timeout=0.2, fsync=fsync)
    steps = [
        single_kind_steps(RequestKind.WRITE, per_client, op=("add", 1))
        for _ in range(n_clients)
    ]
    cluster = Cluster(spec, steps, service_factory=CounterService).run()
    counters = cluster.metrics.counters()
    return replace(
        collect(cluster),
        extra={
            name: sum(v for key, v in counters.items() if key.endswith(f"storage.{name}"))
            for name in ("fsyncs", "appends")
        },
    )


def open_loop_scenario(kind: str, rate: float, total: int = 3000, seed: int = 0) -> RunResult:
    """Latency at an offered load: one Poisson client fires ``total``
    requests at ``rate`` per second at a Sysnet deployment, whatever comes
    back (the paper's clients are all closed-loop). The deployment's own
    closed-loop client idles, so of the result only the request count, the
    RRT summary and the message totals mean anything."""
    profile = sysnet()
    cluster = Cluster(ClusterSpec(profile=profile, seed=seed, connection_scaling=False), [[]])
    client = OpenLoopClient(
        "open", cluster.replica_pids, RequestKind(kind), op=(kind,), rate=rate, total=total,
        wait_for_start=False, warmup=0.01,
    )
    topology = cluster.network.topology
    topology.place(client.pid, topology.site_of(cluster.client_pids[0]))
    cluster.world.add(client, cpu=profile.client_cpu)
    cluster.start()
    deadline = total / rate * 3 + 1.0  # it never retransmits: a lost request stays open
    while not client.done and cluster.kernel.now < deadline:
        cluster.kernel.run(until=cluster.kernel.now + 0.05)
    return replace(
        collect(cluster),
        total_requests=client.stats.completed,
        rrt=summarize(client.stats.rrts),
    )


def leader_switch_scenario(workload: str, switches: bool, seed: int = 0) -> RunResult:
    """§3.6's sensitivity to leader switching: one client sends 120 writes,
    120 reads or (``txn``) 30 three-request T-Paxos transactions, retrying
    the aborted ones; with ``switches`` the manual elector moves every
    replica's view to the next leader every 50 ms, twelve times."""
    spec = ClusterSpec(
        profile=flat(), seed=seed, elector="manual", client_timeout=0.02, retry_aborted=True
    )
    cluster = Cluster(spec, [_one_client_steps(workload, 30 if workload == "txn" else 120)])
    if switches:
        schedule = FaultSchedule(cluster)
        for i in range(12):
            schedule.switch_leader(("r1", "r2", "r0")[i % 3], at=0.05 * (i + 1))
    return collect(cluster.run())


def message_complexity_scenario(kind: str, count: int = 40, seed: int = 0) -> RunResult:
    """Messages per request (per transaction for ``txn``) in the
    failure-free case, from one closed-loop client so that batching
    amortizes nothing: ``msgs_per_step`` is the drained run's total above
    an idle run's (startup recovery, frontier probes, start signals)."""
    spec = ClusterSpec(profile=flat(), seed=seed, client_timeout=0.5)
    busy, idle = (
        Cluster(spec, [steps]).run().drain(0.5) for steps in (_one_client_steps(kind, count), [])
    )
    above_idle = busy.network.total_messages() - idle.network.total_messages()
    return replace(collect(busy), extra={"msgs_per_step": above_idle / count})


#: crc32 % 4 = 0, 1, 2, 3 — one key per shard (test_shard_router pins the
#: router to exactly this arithmetic, so the placement cannot drift).
SHARD_KEYS = ("a4", "a0", "a5", "a1")


def sharding_scenario(
    groups: int,
    n_clients: int = 8,
    per_client: int = 25,
    execute_time: float = 1e-3,
    seed: int = 0,
) -> RunResult:
    """Closed-loop keyed writes with a modeled execution time that makes
    the leader pipeline the bottleneck (§3.4's E), the clients spread
    evenly over :data:`SHARD_KEYS`. Four replicas, so ``groups=4`` puts one
    shard leader on each; only ``groups`` differs between two runs."""
    steps = [
        single_kind_steps(
            RequestKind.WRITE,
            per_client,
            op=lambda i, key=SHARD_KEYS[c % len(SHARD_KEYS)]: ("put", key, i),
        )
        for c in range(n_clients)
    ]
    spec = ClusterSpec(
        profile=sysnet(), n_replicas=4, seed=seed, groups=groups,
        execute_time=execute_time, client_timeout=2.0,
    )
    return collect(Cluster(spec, steps, service_factory=KVStoreService).run())


def state_transfer_scenario(mode: str, state_size: int, seed: int = 0) -> RunResult:
    """§3.3: 100 writes to a service holding ``state_size`` bytes under one
    state-transfer mode. ``mean_payload_bytes`` is the modelled wire size of
    the ``StatePayload`` in each instance of the leader's log; FULL also
    pays to serialize the state, at 1 GB/s per message sent, so its big
    payloads are slower and not just bigger."""
    profile = sysnet()
    if mode == StateTransferMode.FULL.value:
        cpu = profile.replica_cpu
        profile = replace(
            profile, replica_cpu=replace(cpu, send_cost=cpu.send_cost + state_size / 1e9)
        )
    spec = ClusterSpec(
        profile=profile,
        seed=seed,
        state_mode=StateTransferMode(mode),
        connection_scaling=False,
        checkpoint_interval=10_000,  # keep the log around to measure payloads
    )
    cluster = Cluster(
        spec,
        [single_kind_steps(RequestKind.WRITE, 100)],
        service_factory=lambda: NoopService(state_size=state_size),
    ).run()
    log = cluster.leader().log
    sizes = [
        wire_size(log.chosen_value(i).payload)
        for i in range(log.compacted_to + 1, log.frontier + 1)
    ]
    return replace(collect(cluster), extra={"mean_payload_bytes": sum(sizes) / len(sizes)})


def _wide_area_clients(
    replicas: Sequence[ProcessId], clients: Sequence[ProcessId]
) -> Topology:
    """§4.3's premise: replicas on one low-latency network, clients 40 ms
    away over links with high variance."""
    topo = Topology()
    topo.place_all(list(replicas), "servers")
    topo.place_all(list(clients), "clients")
    topo.set_intra("servers", LinkSpec(latency=LogNormalLatency(0.5e-3, 0.05)))
    topo.set_intra("clients", LinkSpec(latency=LogNormalLatency(0.5e-3, 0.05)))
    topo.set_link("clients", "servers", LinkSpec(latency=LogNormalLatency(40e-3, 0.35)))
    return topo


def t_sweep_scenario(kind: str, n_replicas: int, samples: int = 300, seed: int = 0) -> RunResult:
    """§4.3: request response time with ``n_replicas = 2t + 1`` co-located
    replicas and far, jittery clients."""
    profile = NetworkProfile(
        name="t_sweep",
        description="co-located replicas, high-variance wide-area clients",
        replica_cpu=CpuProfile(send_cost=5e-6, recv_cost=5e-6),
        client_cpu=CpuProfile(send_cost=1e-6, recv_cost=1e-6),
        paper_rrt={},
        _builder=_wide_area_clients,
        per_connection_overhead=0.0,
    )
    return rrt_scenario(profile, kind, samples, seed, n_replicas=n_replicas)
