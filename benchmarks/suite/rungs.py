"""The cost ladder: one isolated microbenchmark per layer.

Each rung calls a layer's public functions directly, with nothing else on
the path, and reports host time per operation. Rungs map to the ladder in
ROADMAP.md: kernel events/s -> CPU/network model -> wire codec and WAL
records -> ``StableStore`` append/recover -> protocol handlers per request
(on :class:`~benchmarks.suite.loopback.Loopback`) -> whole harness with one
field varied (metrics, byte accounting, groups, a single node).

A rung's number is the median of ``BATCHES`` timed batches, so one
scheduler hiccup does not move it. Rungs do not depend on the workload;
only the whole-harness ones take the run's seed.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Sequence

from benchmarks.suite.loopback import Loopback
from benchmarks.suite.workloads import (
    N_CLIENTS,
    Repeat,
    run_sim,
    shard_sync_case,
    sim_write_case,
)
from repro.client.client import Client
from repro.client.workload import Step, paper_txn_steps, single_kind_steps
from repro.cluster.harness import Cluster
from repro.core.ballot import Ballot, ProposalNumber
from repro.core.config import ReplicaConfig
from repro.core.messages import AcceptBatch, AcceptedBatch, Reply
from repro.core.replica import Replica
from repro.election.static import StaticElector
from repro.net.network import SimNetwork
from repro.net.profiles import sysnet
from repro.services.noop import NoopService
from repro.shard.router import ShardRouter
from repro.sim.cpu import CpuModel
from repro.sim.kernel import Kernel
from repro.storage import wal
from repro.transport import codec
from repro.types import ReplyStatus, RequestKind

BATCHES = 5
PEERS = ("r0", "r1", "r2")


def _median_ns(batch: Callable[[], int]) -> float:
    """Median over ``BATCHES`` of (batch wall time / operations it ran), ns."""
    samples = []
    for _ in range(BATCHES):
        started = time.perf_counter()
        operations = batch()
        samples.append((time.perf_counter() - started) * 1e9 / operations)
    return statistics.median(samples)


# ----------------------------------------------------------------------- sim
def kernel_events_per_s() -> float:
    """``Kernel.post_at`` + ``run``: 200k self-reposting events, 64 chains."""
    total = 200_000
    chains = 64

    def batch() -> int:
        kernel = Kernel(seed=0)
        post_at = kernel.post_at

        def tick(left: int, step: float) -> None:
            if left:
                post_at(kernel.now + step, tick, left - 1, step)

        for chain in range(chains):
            post_at(0.0, tick, total // chains - 1, 1e-6 * (chain + 1))
        return kernel.run()

    return 1e9 / _median_ns(batch)


def cpu_acquire_ns() -> float:
    cpu = CpuModel(profile=sysnet().replica_cpu_for(N_CLIENTS))
    calls = 200_000

    def batch() -> int:
        now = cpu.busy_until
        for _ in range(calls):
            now = cpu.recv_completion(now) + 1e-6
        return calls

    return _median_ns(batch)


# ----------------------------------------------------------------------- net
def net_delays_ns() -> float:
    """``SimNetwork.delays`` on the sysnet topology, lognormal draw included."""
    clients = tuple(f"c{i}" for i in range(N_CLIENTS))
    network = SimNetwork(sysnet().build_topology(PEERS, clients), seed=0)
    pairs = [(c, r) for c in clients for r in PEERS] + [
        (a, b) for a in PEERS for b in PEERS if a != b
    ]
    rounds = 100_000 // len(pairs)

    def batch() -> int:
        delays = network.delays
        for _ in range(rounds):
            for src, dst in pairs:
                delays(src, dst, 0.0)
        return rounds * len(pairs)

    return _median_ns(batch)


# ---------------------------------------------------------------------- core
def loopback_run(
    steps: Sequence[Step], seed: int = 0
) -> tuple[Loopback, dict[str, Replica], float]:
    """Three replicas and one closed-loop client on a :class:`Loopback`;
    returns the bus, the replicas and host seconds per completed request."""
    bus = Loopback(seed=seed)
    config = ReplicaConfig(peers=PEERS)
    replicas = {
        pid: bus.add(Replica(pid, config, NoopService, StaticElector(PEERS[0])))
        for pid in PEERS
    }
    client = Client("c0", replicas=PEERS, steps=steps, wait_for_start=False)
    bus.add(client)
    started = time.perf_counter()
    bus.start()
    bus.run_until(lambda: client.done)
    elapsed = time.perf_counter() - started
    records = client.request_records()
    if not records or any(r.status is not ReplyStatus.OK for r in records):
        raise RuntimeError("loopback rung: a request did not complete OK")
    fingerprints = {repr(r.service.state_fingerprint()) for r in replicas.values()}
    if len(fingerprints) != 1:
        raise RuntimeError(f"loopback rung: replicas diverged: {fingerprints}")
    return bus, replicas, elapsed / len(records)


def _core_us(steps_factory: Callable[[], Sequence[Step]]) -> float:
    return statistics.median(loopback_run(steps_factory())[2] for _ in range(BATCHES)) * 1e6


def core_rungs() -> dict[str, float]:
    """Host us per completed request with no kernel, network or CPU model."""
    return {
        "core.write_us": _core_us(lambda: single_kind_steps(RequestKind.WRITE, 2000)),
        "core.read_us": _core_us(lambda: single_kind_steps(RequestKind.READ, 2000)),
        # 500 three-op transactions = 2000 requests, one replicated commit each.
        "core.txn_commit_us": _core_us(lambda: paper_txn_steps("optimized", 3, 500)),
    }


# ------------------------------------------------------- transport + storage
def codec_and_storage_rungs() -> dict[str, float]:
    """Encode/decode the messages and WAL records a real write run produced."""
    # 1250 writes: the checkpoint at instance 1200 truncates the WAL, the
    # last 50 instances leave their accept + choose records on the device.
    bus, replicas, _ = loopback_run(single_kind_steps(RequestKind.WRITE, 1250))
    messages = [("r0", bus.samples[t]) for t in (AcceptBatch, AcceptedBatch, Reply)]
    frames = [codec.encode_frame(m) for m in messages]
    stream = b"".join(frames)
    reps = 10_000

    def encode() -> int:
        for _ in range(reps):
            for message in messages:
                codec.encode_frame(message)
        return reps * len(messages)

    def decode() -> int:
        for _ in range(reps):
            codec.decode_frames(stream)
        return reps * len(messages)

    def size() -> int:
        for _ in range(reps):
            for _src, message in messages:
                codec.encoded_size(message)
        return reps * len(messages)

    records = [
        frame.record
        for frame in replicas["r0"].store.device.durable
        if frame.record.kind in ("accept", "choose")
    ]
    if len(records) < 100:
        raise RuntimeError(f"WAL rung: expected 100 records on the leader, got {len(records)}")
    blob = b"".join(wal.encode_frame(r) for r in records)
    wal_reps = 100

    def wal_encode() -> int:
        for _ in range(wal_reps):
            for record in records:
                wal.encode_frame(record)
        return wal_reps * len(records)

    def wal_decode() -> int:
        for _ in range(wal_reps):
            decoded, _consumed, status = wal.decode_frames(blob)
            if status != "ok" or len(decoded) != len(records):
                raise RuntimeError(f"WAL rung: decode returned {status}")
        return wal_reps * len(records)

    value = next(r.payload[1] for r in records if r.kind == "accept")
    return {
        "transport.encode_frame_ns": _median_ns(encode),
        "transport.decode_frame_ns": _median_ns(decode),
        "transport.encoded_size_ns": _median_ns(size),
        "storage.wal_encode_ns": _median_ns(wal_encode),
        "storage.wal_decode_ns": _median_ns(wal_decode),
        "storage.wal_bytes_per_record": len(blob) / len(records),
        **_store_rungs(value),
    }


def _store_rungs(value: object) -> dict[str, float]:
    """``StableStore.accept`` + ``choose`` (async), then ``recover()`` over
    5 000 records and one checkpoint. ``value`` is a real chosen Proposal."""
    ballot = Ballot(1, "r0")
    instances = 2500
    append_samples = []
    recover_samples = []
    for _ in range(BATCHES):
        replica = Replica("r0", ReplicaConfig(peers=PEERS), NoopService, StaticElector("r0"))
        Loopback().add(replica)
        store = replica.store
        for instance in range(1, 11):
            store.accept(ProposalNumber(ballot, instance), value)
            store.choose(instance, value)
        store.write_checkpoint(10)
        started = time.perf_counter()
        for instance in range(11, 11 + instances):
            store.accept(ProposalNumber(ballot, instance), value)
            store.choose(instance, value)
        append_samples.append((time.perf_counter() - started) * 1e9 / (2 * instances))

        store.crash()
        started = time.perf_counter()
        state = store.recover()
        recover_samples.append((time.perf_counter() - started) * 1e3)
        if state is None or state.replayed_records < 2 * instances or state.checkpoint[0] != 10:
            raise RuntimeError(f"storage rung: unexpected recovery result {state}")
    return {
        "storage.append_ns": statistics.median(append_samples),
        "storage.recover_ms": statistics.median(recover_samples),
    }


# --------------------------------------------------------------------- shard
def shard_route_ns() -> float:
    router = ShardRouter(4)
    ops = [("put", f"key{i}", i) for i in range(1000)]
    reps = 100

    def batch() -> int:
        route = router.group_for_op
        for _ in range(reps):
            for op in ops:
                route(op)
        return reps * len(ops)

    return _median_ns(batch)


# ------------------------------------------------------------ whole harness
def cluster_build_ms(seed: int) -> float:
    case = sim_write_case(seed, 500)
    builds = 10

    def batch() -> int:
        for _ in range(builds):
            Cluster(case.spec, case.steps, service_factory=case.service)
        return builds

    return _median_ns(batch) / 1e6


def _checked(rep: Repeat, what: str) -> Repeat:
    if rep.problems or rep.ok != rep.attempted:
        raise RuntimeError(f"{what} rung failed: {rep.problems or 'requests not OK'}")
    return rep


def _host_us_per_req(
    variants: dict[str, Callable[[], Repeat]], rounds: int = 3
) -> dict[str, float]:
    """Median host us/request of each variant, rounds interleaved so drift
    in machine speed hits every variant alike."""
    samples: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(rounds):
        for name, run in variants.items():
            rep = _checked(run(), name)
            samples[name].append(rep.wall_s * 1e6 / rep.ok)
    return {name: statistics.median(values) for name, values in samples.items()}


def harness_rungs(seed: int) -> dict[str, float]:
    """``sim-write``'s and ``sim-shard-sync``'s clusters with one field varied."""
    n = 250
    cost = _host_us_per_req(
        {
            "default": lambda: run_sim([sim_write_case(seed, n)]),
            "metrics=False": lambda: run_sim([sim_write_case(seed, n, metrics=False)]),
            "measure_bytes=False": lambda: run_sim(
                [sim_write_case(seed, n, measure_bytes=False)]
            ),
            "groups=4": lambda: run_sim([shard_sync_case(seed, n // 2, groups=4)]),
            "groups=1": lambda: run_sim([shard_sync_case(seed, n // 2, groups=1)]),
        }
    )
    # The paper's "original" baseline: the same clients against one
    # unreplicated node.
    single = _checked(run_sim([sim_write_case(seed, n, n_replicas=1)]), "single-node")
    return {
        "obs.metrics_cost_ratio": cost["default"] / cost["metrics=False"],
        "obs.bytes_cost_ratio": cost["default"] / cost["measure_bytes=False"],
        "shard.host_cost_ratio": cost["groups=4"] / cost["groups=1"],
        "cluster.single_node_req_per_host_s": single.ok / single.wall_s,
        "cluster.single_node_sim_rrt_p50_ms": single.sim["sim_rrt_p50_ms"],
    }


def all_rungs(seed: int) -> dict[str, float]:
    return {
        "sim.kernel_events_per_s": kernel_events_per_s(),
        "sim.cpu_acquire_ns": cpu_acquire_ns(),
        "net.delays_ns": net_delays_ns(),
        **core_rungs(),
        **codec_and_storage_rungs(),
        "shard.route_ns": shard_route_ns(),
        "cluster.build_ms": cluster_build_ms(seed),
        **harness_rungs(seed),
    }
