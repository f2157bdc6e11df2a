"""Unit tests for the cluster harness, metrics and scenario runners."""

from __future__ import annotations

import pytest

from repro.client.client import Client
from repro.client.workload import single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.cluster.metrics import collect
from repro.cluster.scenarios import rrt_scenario, throughput_scenario
from repro.core.config import ReplicaConfig
from repro.core.group import ReplicationGroup
from repro.election.static import StaticElector
from repro.errors import ConfigError, SimulationError
from repro.obs.prof.profiler import NULL_PROFILER
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER
from repro.services.noop import NoopService
from repro.sim.kernel import Kernel
from repro.types import RequestKind
from tests.conftest import make_test_profile


def small_cluster(**overrides):
    overrides.setdefault("client_timeout", 0.2)
    spec = ClusterSpec(profile=make_test_profile(), **overrides)
    return Cluster(spec, [single_kind_steps(RequestKind.WRITE, 5)])


class TestClusterSpec:
    def test_invalid_elector_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSpec(profile=make_test_profile(), elector="bogus")

    def test_invalid_replica_count_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSpec(profile=make_test_profile(), n_replicas=0)

    @pytest.mark.parametrize(
        ("field", "overrides"),
        [
            ("client_timeout", {"client_timeout": 0.0}),
            ("client_timeout", {"client_timeout": -1.0}),
            ("omega_heartbeat", {"elector": "omega", "omega_heartbeat": 0.0}),
            ("accept_retry", {"accept_retry": 0.0}),
            ("prepare_retry", {"prepare_retry": 0.0}),
            ("omega_timeout", {"omega_heartbeat": 0.25, "omega_timeout": 0.25}),
            ("client_timeout_cap", {"client_timeout": 1e-5, "client_timeout_cap": 0.0}),
            ("client_timeout_cap", {"client_timeout_cap": -1.0}),
            ("client_backoff", {"client_backoff": 0.5}),
            ("client_jitter", {"client_jitter": -0.1}),
        ],
    )
    def test_timer_period_rejected_when_the_spec_is_built(self, field, overrides):
        # A zero period stops simulated time, so building the spec is the
        # only place the error can surface instead of a hang.
        with pytest.raises(ConfigError, match=field):
            ClusterSpec(profile=make_test_profile(), **overrides)

    @pytest.mark.parametrize("field", ["accept_retry", "prepare_retry"])
    def test_replica_config_rejects_a_zero_retry(self, field):
        with pytest.raises(ConfigError, match=field):
            ReplicaConfig(peers=("r0",), **{field: 0.0})

    def test_no_clients_rejected(self):
        spec = ClusterSpec(profile=make_test_profile())
        with pytest.raises(ConfigError):
            Cluster(spec, [])


class TestCluster:
    def test_leader_is_first_replica(self):
        cluster = small_cluster()
        assert cluster.leader_pid == "r0"
        assert cluster.leader() is cluster.group_replicas()["r0"]

    def test_run_completes_all_clients(self):
        cluster = small_cluster().run()
        assert cluster.all_done

    def test_run_times_out_when_stuck(self):
        cluster = small_cluster()
        # Crash everything before start: nothing can complete.
        for pid in cluster.replica_pids:
            cluster.kernel.schedule_at(0.0, cluster.world.crash, pid)
        with pytest.raises(SimulationError):
            cluster.run(max_time=0.5)

    def test_start_signal_starts_clients_roughly_together(self):
        spec = ClusterSpec(profile=make_test_profile(), client_timeout=0.2)
        cluster = Cluster(
            spec, [single_kind_steps(RequestKind.WRITE, 2) for _ in range(4)]
        ).run()
        starts = [c.started_at for c in cluster.clients]
        assert max(starts) - min(starts) < 0.01

    def test_replica_count_configurable(self):
        spec = ClusterSpec(profile=make_test_profile(), n_replicas=5, client_timeout=0.2)
        cluster = Cluster(spec, [single_kind_steps(RequestKind.WRITE, 3)]).run()
        assert len(cluster.replicas) == 5
        assert cluster.all_done

    def test_connection_scaling_applies_extra_cpu(self):
        from repro.net.profiles import sysnet

        spec = ClusterSpec(profile=sysnet(), connection_scaling=True)
        cluster = Cluster(spec, [single_kind_steps(RequestKind.WRITE, 1) for _ in range(8)])
        cpu = cluster.world.cpu("r0")
        assert cpu.profile.extra_per_message == pytest.approx(
            sysnet().per_connection_overhead * 8
        )

    def test_trace_enabled(self):
        cluster = small_cluster(trace=True).run()
        assert cluster.trace is not None and len(cluster.trace) > 0


class TestObsWiring:
    """The run's observers reach every component as one handle, at
    construction; nothing is swapped in afterwards."""

    def test_every_component_holds_the_clusters_observers(self):
        cluster = small_cluster(tracing=True, profiling=True, groups=2)
        registry, tracer, profiler = cluster.metrics, cluster.tracer, cluster.profiler
        assert registry.enabled and tracer.enabled and profiler.enabled
        assert cluster.kernel.profiler is profiler
        assert cluster.network.metrics is registry
        world = cluster.world
        assert (world.metrics, world.tracer, world.profiler) == (registry, tracer, profiler)
        for pid, host in cluster.replicas.items():
            assert host.tracer is tracer and host.profiler is profiler
            assert host.metrics.counter("x") is registry.counter(f"proc.{pid}.x")
            for g, group in host.groups.items():
                assert group.tracer is tracer and group.profiler is profiler
                assert group.metrics.counter("x") is registry.counter(f"proc.{pid}.g{g}.x")
        for client in cluster.clients:
            assert client.metrics is registry and client.tracer is tracer

    def test_bare_components_hold_the_null_observers(self):
        kernel = Kernel()
        assert kernel.profiler is NULL_PROFILER
        client = Client("c0", replicas=("r0",), steps=[])
        assert client.metrics is NULL_REGISTRY and client.tracer is NULL_TRACER
        group = ReplicationGroup(
            "r0", ReplicaConfig(peers=("r0",)), NoopService, StaticElector("r0")
        )
        assert (group.metrics, group.tracer, group.profiler) == (
            NULL_REGISTRY, NULL_TRACER, NULL_PROFILER,
        )


class TestMetrics:
    def test_collect_counts(self):
        cluster = small_cluster().run()
        result = collect(cluster)
        assert result.total_requests == 5
        assert result.n_clients == 1
        assert result.rrt is not None and result.rrt.n == 5
        assert result.throughput > 0
        assert result.aborted_steps == 0

    def test_describe_is_readable(self):
        cluster = small_cluster().run()
        text = collect(cluster).describe()
        assert "RRT" in text and "throughput" in text

    def test_zero_duration_throughput(self):
        from repro.cluster.metrics import RunResult

        result = RunResult(
            n_clients=0, duration=0.0, total_requests=0, total_steps=0,
            aborted_steps=0, total_retransmits=0, rrt=None, trt=None,
        )
        assert result.throughput == 0.0
        assert result.step_throughput == 0.0


class TestScenarios:
    def test_rrt_scenario_accepts_profile_object(self):
        result = rrt_scenario(make_test_profile(), RequestKind.WRITE, samples=5)
        assert result.rrt.n == 5

    def test_rrt_scenario_accepts_kind_string(self):
        result = rrt_scenario(make_test_profile(), "read", samples=5)
        assert result.rrt.n == 5

    def test_throughput_scenario_splits_requests(self):
        result = throughput_scenario(
            make_test_profile(), "write", n_clients=4, total_requests=100
        )
        assert result.total_requests == 100
        assert result.n_clients == 4

    def test_unknown_profile_name(self):
        with pytest.raises(KeyError):
            rrt_scenario("atlantis", "read", samples=1)

    def test_deterministic_given_seed(self):
        a = rrt_scenario(make_test_profile(), "write", samples=10, seed=5)
        b = rrt_scenario(make_test_profile(), "write", samples=10, seed=5)
        assert a.rrt.mean == b.rrt.mean
        c = rrt_scenario("sysnet", "write", samples=10, seed=6)
        d = rrt_scenario("sysnet", "write", samples=10, seed=7)
        assert c.rrt.mean != d.rrt.mean  # different jitter draws
