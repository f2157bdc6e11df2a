"""The benchmark's contract: workloads, metrics, units, directions, bounds.

Single source of truth. ``BENCHMARK.json`` at the repo root is
:func:`benchmark_json` written out (``test_smoke.py`` asserts they agree),
``--compare`` reads the bounds from here, and the README tables restate it.

Currency rule: a name starting ``sim_`` (or containing ``.sim_``) is
*simulated* seconds — the paper's RRT/throughput, exact for a given seed.
Everything else is *host* wall time or a count. No metric combines both.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run measures for (``--seconds`` default and ``run_seconds``).
RUN_SECONDS = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the baseline median a later run may be worse by (end-to-end
    #: only; per-layer metrics explain, they do not gate).
    bound: float | None = None


#: (name, why) — each workload's one-line reason to exist.
WORKLOADS: tuple[tuple[str, str], ...] = (
    ("sim-write",
     "8 closed-loop clients, basic-protocol WRITEs (Fig. 5): kernel, net, "
     "proposer/acceptor, WAL appends and metric accounting all work"),
    ("sim-read",
     "same cluster, X-Paxos READs: no AcceptBatch, no WAL append - a storage "
     "or proposer change must show no change here, a sim/net/obs one must"),
    ("sim-txn",
     "8 clients, T-Paxos 3-op transactions (Fig. 9): ops answered locally, "
     "one replicated commit; stresses tpaxos/locks and the client step loop"),
    ("sim-shard-sync",
     "4 replicas x 4 groups, fsync=sync, keyed KV WRITEs: the only workload "
     "where GroupHost, the shared StoragePump and fsync barriers dominate"),
    ("sim-failover",
     "omega elector, fsync=sync, paced KV WRITEs; leader crashes at 1 s and "
     "recovers from its WAL at 2 s: election, recovery, client retransmit"),
    ("tcp-write",
     "3 replicas + 2 closed-loop clients over real localhost TCP: bypasses "
     "sim and net entirely, only codec, asyncio and core handlers run"),
)

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("req_per_host_s", "req/s", "higher", 0.20),
    Metric("sim_throughput_rps", "req/s", "higher", 0.03),
    Metric("sim_rrt_p50_ms", "ms", "lower", 0.03),
    Metric("sim_rrt_p99_ms", "ms", "lower", 0.03),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: Layers are ``src/repro/`` packages; each gets a ``<layer>.self_share``.
LAYERS = (
    "sim", "net", "transport", "storage", "core", "shard", "election",
    "client", "cluster", "obs", "services", "util",
)

PER_LAYER: tuple[Metric, ...] = (
    # rungs: isolated calls into one layer's public functions
    Metric("sim.kernel_events_per_s", "1/s", "higher"),
    Metric("sim.cpu_acquire_ns", "ns", "lower"),
    Metric("net.delays_ns", "ns", "lower"),
    Metric("transport.encode_frame_ns", "ns", "lower"),
    Metric("transport.decode_frame_ns", "ns", "lower"),
    Metric("transport.encoded_size_ns", "ns", "lower"),
    Metric("storage.wal_encode_ns", "ns", "lower"),
    Metric("storage.wal_decode_ns", "ns", "lower"),
    Metric("storage.wal_bytes_per_record", "B", "lower"),
    Metric("storage.append_ns", "ns", "lower"),
    Metric("storage.recover_ms", "ms", "lower"),
    Metric("core.write_us", "us", "lower"),
    Metric("core.read_us", "us", "lower"),
    Metric("core.txn_commit_us", "us", "lower"),
    Metric("shard.route_ns", "ns", "lower"),
    Metric("shard.host_cost_ratio", "ratio", "lower"),
    Metric("cluster.build_ms", "ms", "lower"),
    Metric("cluster.single_node_req_per_host_s", "req/s", "higher"),
    Metric("cluster.single_node_sim_rrt_p50_ms", "ms", "lower"),
    Metric("obs.metrics_cost_ratio", "ratio", "lower"),
    Metric("obs.bytes_cost_ratio", "ratio", "lower"),
    # counts: read from the run's MetricsRegistry / TcpRuntime
    Metric("sim.events_per_req", "count", "lower"),
    Metric("net.msgs_per_req", "count", "lower"),
    Metric("net.bytes_per_req", "B", "lower"),
    Metric("transport.tcp_msgs_per_req", "count", "lower"),
    Metric("transport.tcp_bytes_per_req", "B", "lower"),
    Metric("storage.appends_per_req", "count", "lower"),
    Metric("storage.fsyncs_per_req", "count", "lower"),
    Metric("core.batch_size_mean", "count", "higher"),
    Metric("core.recoveries", "count", "lower"),
    Metric("core.recovery_sim_ms", "ms", "lower"),
    Metric("election.leaders_elected", "count", "lower"),
    Metric("election.sim_unavailable_ms", "ms", "lower"),
    Metric("client.retransmits_per_req", "count", "lower"),
    Metric("client.sim_trt_p50_ms", "ms", "lower"),
    Metric("client.wall_rrt_p50_ms", "ms", "lower"),
    Metric("client.wall_rrt_p99_ms", "ms", "lower"),
    # shares: cProfile self time of one extra repeat, bucketed by package
    *(Metric(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
    Metric("budget.unattributed_share", "ratio", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    # reference-host seconds per wall second while this run measured (see
    # calibrate.py); a raw wall-clock rate is the reported rate times this
    Metric("host.speed_ratio", "ratio", "higher"),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json() -> dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.suite"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
