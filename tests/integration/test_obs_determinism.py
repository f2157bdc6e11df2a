"""Observability must be passive: instrumentation may read the virtual
clock and count, but it must never touch an RNG or schedule an event. These
regression tests hold the subsystem to that by running the same workload
with metrics/tracing on and off and demanding identical outcomes."""

from __future__ import annotations

import pickle

import pytest

from repro.client.workload import paper_txn_steps, single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.cluster.metrics import collect
from repro.types import RequestKind
from tests.conftest import make_test_profile


def run(metrics: bool, steps_factory, seed: int = 7) -> Cluster:
    spec = ClusterSpec(
        profile=make_test_profile(),
        seed=seed,
        metrics=metrics,
        measure_bytes=metrics,
    )
    steps = [steps_factory() for _ in range(2)]
    return Cluster(spec, steps).run().drain()


def chosen_log_bytes(cluster: Cluster) -> dict[str, bytes]:
    """A byte-exact digest of every replica's chosen sequence."""
    return {
        pid: pickle.dumps(replica.log.chosen_above(0))
        for pid, replica in cluster.group_replicas().items()
    }


WORKLOADS = [
    pytest.param(lambda: single_kind_steps(RequestKind.WRITE, 10), id="writes"),
    pytest.param(lambda: single_kind_steps(RequestKind.READ, 10), id="reads"),
    pytest.param(lambda: paper_txn_steps("optimized", 3, 5), id="txns"),
]


class TestMetricsCannotPerturbTheRun:
    @pytest.mark.parametrize("steps_factory", WORKLOADS)
    def test_chosen_logs_byte_identical(self, steps_factory):
        instrumented = run(metrics=True, steps_factory=steps_factory)
        bare = run(metrics=False, steps_factory=steps_factory)
        assert chosen_log_bytes(instrumented) == chosen_log_bytes(bare)

    @pytest.mark.parametrize("steps_factory", WORKLOADS)
    def test_run_results_identical(self, steps_factory):
        instrumented = collect(run(metrics=True, steps_factory=steps_factory))
        bare = collect(run(metrics=False, steps_factory=steps_factory))
        # Every paper-facing aggregate must match exactly. The message
        # accounting fields legitimately differ (zeros when disabled).
        assert instrumented.n_clients == bare.n_clients
        assert instrumented.duration == bare.duration
        assert instrumented.total_requests == bare.total_requests
        assert instrumented.total_steps == bare.total_steps
        assert instrumented.aborted_steps == bare.aborted_steps
        assert instrumented.total_retransmits == bare.total_retransmits
        assert (instrumented.rrt is None) == (bare.rrt is None)
        if instrumented.rrt is not None:
            assert instrumented.rrt == bare.rrt
        if instrumented.trt is not None:
            assert instrumented.trt == bare.trt
        # And the instrumented run actually recorded traffic.
        assert instrumented.total_messages > 0
        assert instrumented.total_bytes > 0
        assert bare.total_messages == 0

    def test_virtual_end_times_identical(self):
        factory = lambda: single_kind_steps(RequestKind.WRITE, 8)  # noqa: E731
        instrumented = run(metrics=True, steps_factory=factory)
        bare = run(metrics=False, steps_factory=factory)
        assert instrumented.kernel.now == bare.kernel.now
        for pid in instrumented.replicas:
            assert (
                instrumented.group_replicas()[pid].service.state_fingerprint()
                == bare.group_replicas()[pid].service.state_fingerprint()
            )

    def test_metrics_off_skips_registry(self):
        bare = run(
            metrics=False,
            steps_factory=lambda: single_kind_steps(RequestKind.WRITE, 3),
        )
        assert not bare.metrics.enabled
        assert bare.metrics.counters() == {}
