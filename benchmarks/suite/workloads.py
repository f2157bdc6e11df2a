"""The six workloads: one timed repeat each, plus its correctness gate.

Every ``sim-*`` repeat builds a fresh :class:`~repro.cluster.harness.Cluster`
from the same seed, so repeats are bit-identical in simulated time (the run
is its own determinism check) and differ only in host time. ``tcp-write``
builds a fresh :class:`~repro.transport.tcp.TcpRuntime` per repeat.

All of it drives the program through its public surface — ``ClusterSpec``,
``Cluster``, ``FaultSchedule``, ``Client``, ``Replica``, ``TcpRuntime`` and
the run's ``MetricsRegistry`` — and touches nothing under ``src/``.

Sizes are per repeat at ``scale=1.0`` and are chosen so one repeat takes
about a second of host time: a ten-second run then holds ~8-10 repeats,
which is what keeps the host-time medians steady.
"""

from __future__ import annotations

import cProfile
import random
import sys
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any

from repro.chaos.invariants import check_cluster
from repro.client.client import Client
from repro.client.workload import Step, paper_txn_steps, single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.cluster.harness import Cluster, ClusterSpec
from repro.core.config import ReplicaConfig
from repro.core.replica import Replica
from repro.election.static import StaticElector
from repro.errors import SimulationError
from repro.net.profiles import sysnet
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.services.base import Service
from repro.services.kvstore import KVStoreService
from repro.services.noop import NoopService
from repro.transport.tcp import TcpRuntime
from repro.types import ReplyStatus, RequestKind

N_CLIENTS = 8
#: crc32 % 4 = 0, 1, 2, 3 — one key per shard, as in ``bench_sharding.py``.
SHARD_KEYS = ("a4", "a0", "a5", "a1")
TCP_PEERS = ("r0", "r1", "r2")
#: ``sim-failover`` runs this many fault trials per repeat, on disjoint seeds.
FAILOVER_TRIALS = 2
#: Share of each TCP client's first requests left out of the wall RRTs
#: (connection set-up, cold code paths): 200 of 500.
TCP_WARM_SHARE = 0.4


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def scaled(full: int, scale: float) -> int:
    return max(1, round(full * scale))


@dataclass
class Repeat:
    """What one repeat of a workload measured."""

    #: Host seconds of the timed region (TCP: first send to last reply).
    wall_s: float = 0.0
    attempted: int = 0
    ok: int = 0
    #: Simulated-time results; identical on every repeat of one seed.
    sim: dict[str, float] = field(default_factory=dict)
    #: Per-layer counts read from the run's registry / runtime.
    counts: dict[str, float] = field(default_factory=dict)
    #: Wall-clock request response times, ms (``tcp-write`` only).
    wall_rrts_ms: list[float] = field(default_factory=list)
    #: Named correctness failures; any entry fails the whole run.
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SimCase:
    """One simulated deployment of a repeat."""

    spec: ClusterSpec
    steps: list[list[Step]]
    service: Callable[[], Service] = NoopService
    #: ``(pid, crash_at, recover_at)`` in simulated seconds, or None.
    crash: tuple[str, float, float] | None = None


def _planned(steps: Sequence[Sequence[Step]]) -> int:
    return sum(len(step.requests) for client in steps for step in client)


def _suffix_sum(counters: Mapping[str, int], suffix: str) -> int:
    return sum(v for name, v in counters.items() if name.endswith(suffix))


def _sum_prefix(counters: Mapping[str, int], prefix: str) -> int:
    return sum(v for name, v in counters.items() if name.startswith(prefix))


def _client_span(clients: Sequence[Client]) -> float:
    """First client start to last client finish, on the runtime's clock — a
    run's duration as ``repro.cluster.metrics.collect`` defines it (collect
    itself is not used: it imports scipy for its confidence intervals)."""
    starts = [c.started_at for c in clients if c.started_at is not None]
    ends = [c.finished_at for c in clients if c.finished_at is not None]
    return max(ends) - min(starts) if starts and ends else 0.0


def _reply_gap(clients: Sequence[Client]) -> float:
    """Longest gap between consecutive OK replies across all clients."""
    times = sorted(
        r.completed_at
        for c in clients
        for r in c.request_records()
        if r.status is ReplyStatus.OK
    )
    return max((b - a for a, b in zip(times, times[1:])), default=0.0)


def _converged(fingerprints: Mapping[str, object]) -> bool:
    """Every group's replicas agree (keys are ``pid`` or ``pid/g<n>``)."""
    by_group: dict[str, set[str]] = {}
    for name, fp in fingerprints.items():
        by_group.setdefault(name.partition("/")[2], set()).add(repr(fp))
    return all(len(fps) == 1 for fps in by_group.values())


def _registry_counts(counters: Mapping[str, int], requests: int) -> dict[str, float]:
    """Per-layer counts every runtime can report (replica/client scopes)."""
    per_req = 1.0 / requests if requests else 0.0
    rounds = _suffix_sum(counters, ".proposer.rounds")
    return {
        "storage.appends_per_req": _suffix_sum(counters, ".storage.appends") * per_req,
        "storage.fsyncs_per_req": _suffix_sum(counters, ".storage.fsyncs") * per_req,
        "core.batch_size_mean": (
            _suffix_sum(counters, ".proposer.batched_instances") / rounds if rounds else 0.0
        ),
        "core.recoveries": float(_suffix_sum(counters, ".recovery.completed")),
        "election.leaders_elected": float(_suffix_sum(counters, ".leader.elected")),
        "client.retransmits_per_req": counters.get("client.retransmit", 0) * per_req,
    }


def run_sim(cases: Sequence[SimCase], profile: cProfile.Profile | None = None) -> Repeat:
    """Run each case to completion, timing only ``Cluster.run``; then gate."""
    rep = Repeat()
    rrts: list[float] = []
    trts: list[float] = []
    gaps: list[float] = []
    counters: dict[str, int] = {}
    events = 0
    duration = 0.0
    recovery_s = 0.0
    recoveries = 0
    for case in cases:
        cluster = Cluster(case.spec, case.steps, service_factory=case.service)
        if case.crash is not None:
            pid, down, up = case.crash
            FaultSchedule(cluster).crash(pid, down).recover(pid, up)
        if profile is not None:
            profile.enable()
        started = time.perf_counter()
        try:
            cluster.run(max_time=120.0)
        except SimulationError as exc:
            rep.problems.append(f"liveness: {exc}")
        rep.wall_s += time.perf_counter() - started
        if profile is not None:
            profile.disable()

        # Read the counts before drain() adds idle-time traffic to them.
        events += cluster.kernel.events_processed
        for name, value in cluster.metrics.counters().items():
            counters[name] = counters.get(name, 0) + value
        for name, hist in cluster.metrics.histograms().items():
            if name.endswith(".recovery.duration"):
                recovery_s += hist.mean * hist.count
                recoveries += hist.count
        rep.attempted += _planned(case.steps)
        for client in cluster.clients:
            for record in client.request_records():
                if record.status is ReplyStatus.OK:
                    rep.ok += 1
                    rrts.append(record.rrt)
            trts.extend(client.trts())
        gaps.append(_reply_gap(cluster.clients))
        duration += _client_span(cluster.clients)

        cluster.drain()
        rep.problems.extend(str(v) for v in check_cluster(cluster))
        dead = [pid for pid, r in cluster.replicas.items() if not r.alive]
        if dead:
            rep.problems.append(f"replicas not alive after the run: {dead}")
        if not _converged(cluster.replica_fingerprints()):
            rep.problems.append("replica fingerprints differ after drain")

    rep.sim = {
        "sim_throughput_rps": rep.ok / duration if duration else 0.0,
        "sim_rrt_p50_ms": percentile(rrts, 0.50) * 1e3,
        "sim_rrt_p99_ms": percentile(rrts, 0.99) * 1e3,
    }
    per_req = 1.0 / rep.ok if rep.ok else 0.0
    rep.counts = {
        **_registry_counts(counters, rep.ok),
        "sim.events_per_req": events * per_req,
        "net.msgs_per_req": _sum_prefix(counters, "msg.send.") * per_req,
        "net.bytes_per_req": _sum_prefix(counters, "msg.send_bytes.") * per_req,
        "core.recovery_sim_ms": recovery_s / recoveries * 1e3 if recoveries else 0.0,
        "election.sim_unavailable_ms": percentile(gaps, 0.50) * 1e3,
        "client.sim_trt_p50_ms": percentile(trts, 0.50) * 1e3,
    }
    return rep


# ------------------------------------------------------------- sim workloads
def _spec(seed: int, **overrides: Any) -> ClusterSpec:
    """sysnet, 3 replicas, static elector, harness defaults otherwise."""
    return ClusterSpec(profile=sysnet(), seed=seed, **overrides)


def _kv_put(key: str, rng: random.Random) -> Callable[[int], tuple[str, str, int]]:
    return lambda _index: ("put", key, rng.randrange(1 << 30))


def sim_write_case(seed: int, n_per_client: int, **overrides: Any) -> SimCase:
    """``sim-write``'s deployment; the obs/cluster rungs vary one field of it."""
    steps = [single_kind_steps(RequestKind.WRITE, n_per_client) for _ in range(N_CLIENTS)]
    return SimCase(_spec(seed, **overrides), steps)


def sim_write(seed: int, scale: float, profile: cProfile.Profile | None = None) -> Repeat:
    return run_sim([sim_write_case(seed, scaled(500, scale))], profile)


def sim_read(seed: int, scale: float, profile: cProfile.Profile | None = None) -> Repeat:
    n = scaled(800, scale)
    steps = [single_kind_steps(RequestKind.READ, n) for _ in range(N_CLIENTS)]
    return run_sim([SimCase(_spec(seed), steps)], profile)


def sim_txn(seed: int, scale: float, profile: cProfile.Profile | None = None) -> Repeat:
    n = scaled(200, scale)
    steps = [paper_txn_steps("optimized", 3, n) for _ in range(N_CLIENTS)]
    return run_sim([SimCase(_spec(seed), steps)], profile)


def shard_sync_case(seed: int, n_per_client: int, groups: int) -> SimCase:
    """``sim-shard-sync``'s deployment; the shard rung runs it at 1 and 4 groups."""
    rng = random.Random(seed)
    steps = [
        single_kind_steps(
            RequestKind.WRITE, n_per_client, op=_kv_put(SHARD_KEYS[c % len(SHARD_KEYS)], rng)
        )
        for c in range(N_CLIENTS)
    ]
    spec = _spec(seed, n_replicas=4, groups=groups, fsync="sync")
    return SimCase(spec, steps, KVStoreService)


def sim_shard_sync(seed: int, scale: float, profile: cProfile.Profile | None = None) -> Repeat:
    return run_sim([shard_sync_case(seed, scaled(250, scale), groups=4)], profile)


def sim_failover(seed: int, scale: float, profile: cProfile.Profile | None = None) -> Repeat:
    # Paced clients (5 ms think time) keep requests falling due while no
    # leader exists. 600 per client span the crash at 1 s and the WAL replay
    # at 2 s and keep the ~12 requests a trial's boot, outage and rejoin
    # delay at 0.5% of the sample: at 300 they were 1% and sim_rrt_p99_ms
    # flipped between 0.87 and 1.1 ms from seed to seed. A smaller scale
    # therefore drops trials, not requests.
    n = 600
    cases = []
    for trial in range(scaled(FAILOVER_TRIALS, scale)):
        trial_seed = seed * FAILOVER_TRIALS + trial
        rng = random.Random(trial_seed)
        steps = [
            [
                Step(
                    requests=((RequestKind.WRITE, ("put", f"k{c}", rng.randrange(1 << 30))),),
                    label="write",
                    gap=0.005,
                )
                for _ in range(n)
            ]
            for c in range(4)
        ]
        spec = _spec(
            trial_seed, elector="omega", fsync="sync", track_commits=True, client_timeout=0.05
        )
        cases.append(SimCase(spec, steps, KVStoreService, crash=("r0", 1.0, 2.0)))
    return run_sim(cases, profile)


# ----------------------------------------------------------------- tcp-write
def _tcp_steps(seed: int, n_per_client: int) -> list[list[Step]]:
    rng = random.Random(seed)
    return [
        single_kind_steps(RequestKind.WRITE, n_per_client, op=_kv_put(f"k{c}", rng))
        for c in range(2)
    ]


def tcp_write(seed: int, scale: float, profile: cProfile.Profile | None = None) -> Repeat:
    n = scaled(500, scale)
    steps = _tcp_steps(seed, n)
    config = ReplicaConfig(peers=TCP_PEERS)
    # A bare TcpRuntime deployment records no metrics; the registry is
    # instrumentation, so only the traced repeat carries it.
    registry = MetricsRegistry() if profile is not None else NULL_REGISTRY
    runtime = TcpRuntime(seed=seed)
    replicas = {}
    for pid in TCP_PEERS:
        replica = Replica(pid, config, KVStoreService, StaticElector(TCP_PEERS[0]))
        replica.metrics = registry.scope(pid)
        replicas[pid] = runtime.add(replica)
    clients = []
    for index, client_steps in enumerate(steps):
        client = Client(
            f"c{index}", replicas=TCP_PEERS, steps=client_steps, timeout=1.0,
            wait_for_start=False,
        )
        client.metrics = registry
        clients.append(runtime.add(client))

    rep = Repeat(attempted=_planned(steps))
    if profile is not None:
        # Handlers run on the runtime's loop thread: the hook below is
        # installed for threads started from here on, and switches that
        # thread to the C profiler on its first event.
        def bootstrap(*_event: object) -> None:
            sys.setprofile(None)
            profile.enable()

        threading.setprofile(bootstrap)
    try:
        runtime.start()
    finally:
        if profile is not None:
            threading.setprofile(None)
    try:
        if not runtime.run_until(lambda: all(c.done for c in clients), timeout=120.0):
            rep.problems.append("liveness: TCP clients did not finish in 120 s")
        leader = replicas[TCP_PEERS[0]]
        if not runtime.run_until(
            lambda: all(r.applied == leader.applied for r in replicas.values()), timeout=5.0
        ):
            rep.problems.append("backups did not reach the leader's frontier in 5 s")
    finally:
        runtime.shutdown()
    if profile is not None:
        profile.disable()

    skip = int(n * TCP_WARM_SHARE)
    for client in clients:
        records = client.request_records()
        rep.ok += sum(1 for r in records if r.status is ReplyStatus.OK)
        rep.wall_rrts_ms.extend(
            r.rrt * 1e3 for r in records[skip:] if r.completed_at is not None
        )
    rep.wall_s = _client_span(clients)

    cluster = SimpleNamespace(replicas=replicas, clients=clients, config=config)
    rep.problems.extend(str(v) for v in check_cluster(cluster))
    if not _converged({pid: r.service.state_fingerprint() for pid, r in replicas.items()}):
        rep.problems.append("replica fingerprints differ after the bounded wait")

    per_req = 1.0 / rep.ok if rep.ok else 0.0
    rep.counts = {
        **_registry_counts(registry.counters(), rep.ok),
        "transport.tcp_msgs_per_req": runtime.messages_sent * per_req,
        "transport.tcp_bytes_per_req": runtime.bytes_sent * per_req,
    }
    return rep


def tcp_write_sim_twin(seed: int, scale: float) -> dict[str, float]:
    """The simulator's figures for ``tcp-write``'s deployment (same replicas,
    clients, service and ops on the sysnet model): its ``sim_*`` currency."""
    steps = _tcp_steps(seed, scaled(500, scale))
    rep = run_sim([SimCase(_spec(seed), steps, KVStoreService)])
    if rep.problems or rep.ok != rep.attempted:
        raise RuntimeError(f"tcp-write simulated twin failed: {rep.problems}")
    return rep.sim


@dataclass(frozen=True)
class Workload:
    name: str
    repeat: Callable[..., Repeat]
    #: Source of the ``sim_*`` metrics when the repeats are not simulated.
    sim_twin: Callable[[int, float], dict[str, float]] | None = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sim-write", sim_write),
        Workload("sim-read", sim_read),
        Workload("sim-txn", sim_txn),
        Workload("sim-shard-sync", sim_shard_sync),
        Workload("sim-failover", sim_failover),
        Workload("tcp-write", tcp_write, tcp_write_sim_twin),
    )
}
