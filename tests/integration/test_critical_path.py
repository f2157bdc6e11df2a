"""Latency-formula conformance (§3.4): the critical-path analyzer's measured
decomposition must reproduce the paper's analytic formulas exactly on a
calibrated constant-latency profile with free CPUs —

* basic protocol writes:  ``2M + E + 2m``
* X-Paxos reads:          ``2M + max(E, m)``
* original (unreplicated): ``2M + E``

``M`` and ``m`` are one-way client<->replica and replica<->replica
latencies. With deterministic links the only slack is float rounding, so
the tolerance is one scheduling quantum (1 µs), far below M or m.
"""

from __future__ import annotations

import pytest

from repro.analysis.model import LatencyModelInputs, xpaxos_rrt
from repro.client.workload import single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.net.latency import ConstantLatency
from repro.net.link import LinkSpec
from repro.net.profiles import NetworkProfile
from repro.net.topology import Topology
from repro.obs.tracing import analyze_requests, conformance, summarize_paths
from repro.sim.cpu import CpuProfile
from repro.types import RequestKind

M = 400e-6   # one-way client <-> replica
SMALL_m = 150e-6  # one-way replica <-> replica
QUANTUM = 1e-6  # acceptance tolerance: one scheduling quantum


def calibrated_profile(client_replica: float = M, replica_replica: float = SMALL_m):
    def builder(replicas, clients):
        link = lambda latency: LinkSpec(  # noqa: E731
            latency=ConstantLatency(latency), jitter_reorder=False
        )
        topo = Topology(default=link(client_replica))
        topo.place_all(list(replicas), "srv")
        topo.place_all(list(clients), "cli")
        topo.set_intra("srv", link(replica_replica))
        topo.set_intra("cli", link(client_replica))
        return topo

    return NetworkProfile(
        name="calibrated",
        description=f"constant M={client_replica} m={replica_replica}",
        replica_cpu=CpuProfile(),
        client_cpu=CpuProfile(),
        paper_rrt={},
        _builder=builder,
        per_connection_overhead=0.0,
    )


def run_traced(kind: RequestKind, execute_time: float = 0.0, requests: int = 8):
    spec = ClusterSpec(
        profile=calibrated_profile(),
        tracing=True,
        execute_time=execute_time,
        seed=0,
    )
    cluster = Cluster(spec, [single_kind_steps(kind, requests)])
    cluster.run(max_time=60.0).drain()
    return cluster


def paths_of(cluster):
    paths = analyze_requests(cluster.tracer.store)
    assert paths and all(p.complete for p in paths)
    return paths


class TestWriteConformance:
    @pytest.mark.parametrize("execute", [0.0, 300e-6], ids=["E0", "E300us"])
    def test_write_rrt_is_2M_E_2m(self, execute):
        cluster = run_traced(RequestKind.WRITE, execute_time=execute)
        paths = paths_of(cluster)
        model = LatencyModelInputs(
            client_replica=M, replica_replica=SMALL_m, execute=execute
        )
        row = conformance(paths, model)["write"]
        assert row.formula == "2M + E + 2m"
        assert abs(row.deviation) < QUANTUM
        # And the decomposition itself lands on the right components.
        summary = summarize_paths(paths)["write"]
        assert summary.mean["M"] == pytest.approx(2 * M, abs=QUANTUM)
        assert summary.mean["E"] == pytest.approx(execute, abs=QUANTUM)
        assert summary.mean["m"] == pytest.approx(2 * SMALL_m, abs=QUANTUM)
        assert summary.mean["other"] == pytest.approx(0.0, abs=QUANTUM)


class TestReadConformance:
    @pytest.mark.parametrize("execute", [0.0, 300e-6], ids=["E<m", "E>m"])
    def test_read_rrt_is_2M_max_E_m(self, execute):
        cluster = run_traced(RequestKind.READ, execute_time=execute)
        paths = paths_of(cluster)
        model = LatencyModelInputs(
            client_replica=M, replica_replica=SMALL_m, execute=execute
        )
        row = conformance(paths, model)["read"]
        assert row.formula == "2M + max(E, m)"
        assert row.expected == pytest.approx(2 * M + max(execute, SMALL_m))
        assert abs(row.deviation) < QUANTUM
        # The binding constraint shows up in the attribution: confirms (m)
        # bound the read when m > E; execution (E) when E > m.
        summary = summarize_paths(paths)["read"]
        if execute > SMALL_m:
            assert summary.mean["E"] == pytest.approx(execute, abs=QUANTUM)
        else:
            assert summary.mean["m"] == pytest.approx(SMALL_m, abs=QUANTUM)

    def test_disabled_xpaxos_reads_held_to_write_formula(self):
        spec = ClusterSpec(
            profile=calibrated_profile(), tracing=True, xpaxos_reads=False, seed=0
        )
        cluster = Cluster(spec, [single_kind_steps(RequestKind.READ, 6)])
        cluster.run(max_time=60.0).drain()
        paths = paths_of(cluster)
        model = LatencyModelInputs(client_replica=M, replica_replica=SMALL_m, execute=0.0)
        row = conformance(paths, model, xpaxos_reads=False)["read"]
        assert row.formula == "2M + E + 2m"
        assert abs(row.deviation) < QUANTUM


class TestReadBehindWrite:
    """A read that comes due while a write's accept round is in flight
    waits for that round to be chosen: at most one round, ``2m``, above
    ``2M + max(E, m)``."""

    @pytest.mark.parametrize("execute", [0.0, 300e-6], ids=["E<m", "E>m"])
    def test_read_rrt_within_one_round_of_xpaxos_rrt(self, execute):
        spec = ClusterSpec(profile=calibrated_profile(), execute_time=execute, seed=0)
        cluster = Cluster(spec, [single_kind_steps(RequestKind.WRITE, 12),
                                 single_kind_steps(RequestKind.READ, 12)])
        cluster.run(max_time=60.0).drain()
        rrts = [r.rrt for c in cluster.clients for r in c.request_records()
                if r.kind is RequestKind.READ]
        model = LatencyModelInputs(client_replica=M, replica_replica=SMALL_m, execute=execute)
        assert len(rrts) == 12
        assert max(rrts) <= xpaxos_rrt(model) + 2 * SMALL_m + QUANTUM
        assert any(rrt > xpaxos_rrt(model) + QUANTUM for rrt in rrts)  # some waited


class TestOriginalConformance:
    def test_original_rrt_is_2M(self):
        cluster = run_traced(RequestKind.ORIGINAL)
        paths = paths_of(cluster)
        model = LatencyModelInputs(client_replica=M, replica_replica=SMALL_m, execute=0.0)
        row = conformance(paths, model)["original"]
        assert row.formula == "2M + E"
        assert abs(row.deviation) < QUANTUM

    def test_original_rrt_pays_one_execution(self):
        # One E timer per request: at E = 1 ms the mean RRT is the E = 0
        # mean plus 1 ms, and the trace holds the model to 2M + E.
        means = {}
        for execute in (0.0, 1e-3):
            cluster = run_traced(RequestKind.ORIGINAL, execute_time=execute)
            rrts = [r.rrt for c in cluster.clients for r in c.request_records()]
            means[execute] = sum(rrts) / len(rrts)
        assert means[1e-3] == pytest.approx(means[0.0] + 1e-3, abs=QUANTUM)
        model = LatencyModelInputs(client_replica=M, replica_replica=SMALL_m, execute=1e-3)
        row = conformance(paths_of(cluster), model)["original"]
        assert abs(row.deviation) < QUANTUM
