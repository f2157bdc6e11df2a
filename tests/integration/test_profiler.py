"""The profiler must be passive and deterministic: a profiled run is
byte-identical to a bare one, two profiled runs of the same seed produce
byte-identical sim-CPU output, and the exported artifacts validate.

Mirrors tests/integration/test_obs_determinism.py — the profiler signs the
same passivity contract as the metrics registry and the tracer."""

from __future__ import annotations

import pickle

import pytest

from repro.client.workload import paper_txn_steps, single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.obs.chrome import validate_chrome_trace
from repro.obs.prof.export import collapsed_lines
from repro.obs.prof.profiler import NULL_PROFILER
from repro.types import RequestKind
from tests.conftest import make_test_profile


def run(profiling: bool, steps_factory, seed: int = 7,
        execute_time: float = 0.0, tracing: bool = False) -> Cluster:
    spec = ClusterSpec(
        profile=make_test_profile(),
        seed=seed,
        profiling=profiling,
        execute_time=execute_time,
        tracing=tracing,
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


class TestProfilerCannotPerturbTheRun:
    @pytest.mark.parametrize("steps_factory", WORKLOADS)
    def test_chosen_logs_byte_identical(self, steps_factory):
        profiled = run(profiling=True, steps_factory=steps_factory)
        bare = run(profiling=False, steps_factory=steps_factory)
        assert chosen_log_bytes(profiled) == chosen_log_bytes(bare)
        assert profiled.kernel.now == bare.kernel.now

    @pytest.mark.parametrize("steps_factory", WORKLOADS)
    def test_byte_identical_with_modeled_execution(self, steps_factory):
        profiled = run(profiling=True, steps_factory=steps_factory,
                       execute_time=0.002)
        bare = run(profiling=False, steps_factory=steps_factory,
                   execute_time=0.002)
        assert chosen_log_bytes(profiled) == chosen_log_bytes(bare)
        assert profiled.kernel.now == bare.kernel.now

    @pytest.mark.parametrize(
        "limits",
        [
            lambda i: {"until": 0.002 * (i + 1)},
            lambda i: {"max_events": 37},
            lambda i: {"until": 0.002 * (i + 1), "max_events": 15},
        ],
        ids=["until", "max_events", "both"],
    )
    def test_partial_runs_stop_at_the_same_event(self, limits):
        """``kernel.run(until=, max_events=)`` is one loop: with the
        profiler on it fires the same events and parks the clock at the
        same place, call after call."""

        def drive(profiling: bool):
            spec = ClusterSpec(profile=make_test_profile(), seed=7, profiling=profiling)
            steps = [single_kind_steps(RequestKind.WRITE, 10) for _ in range(2)]
            cluster = Cluster(spec, steps).start()
            kernel = cluster.kernel
            fired = [(kernel.run(**limits(i)), kernel.now) for i in range(4)]
            return fired, kernel.events_processed, kernel.pending, chosen_log_bytes(cluster)

        profiled, bare = drive(True), drive(False)
        assert profiled == bare
        assert all(n > 0 for n, _now in bare[0]) and bare[2] > 0  # stopped mid-run

    def test_profiling_composes_with_tracing(self):
        factory = lambda: single_kind_steps(RequestKind.WRITE, 8)  # noqa: E731
        both = run(profiling=True, tracing=True, steps_factory=factory)
        bare = run(profiling=False, tracing=False, steps_factory=factory)
        assert chosen_log_bytes(both) == chosen_log_bytes(bare)


class TestProfilerDeterminism:
    @pytest.mark.parametrize("steps_factory", WORKLOADS)
    def test_sim_collapsed_output_byte_identical(self, steps_factory):
        a = run(profiling=True, steps_factory=steps_factory)
        b = run(profiling=True, steps_factory=steps_factory)
        # Sim-CPU frames and counter samples derive only from simulation
        # state, so two runs of the same seed agree to the byte.
        assert collapsed_lines(a.profiler) == collapsed_lines(b.profiler)
        assert a.profiler.samples == b.profiler.samples

    def test_frames_cover_protocol_and_messaging(self):
        cluster = run(
            profiling=True,
            steps_factory=lambda: single_kind_steps(RequestKind.WRITE, 10),
            execute_time=0.001,
        )
        # The test profile's CPU costs are zero, so the message frames
        # carry no sim time, but each send and receive is still counted.
        leaves = {path[-1] for path in cluster.profiler.frames()}
        assert "execute" in leaves
        assert "send.AcceptBatch.replica" in leaves
        assert "recv.AcceptedBatch.replica" in leaves
        assert "send.Reply.client" in leaves
        assert "recv.ClientRequest.client" in leaves

    def test_attribution_accounts_expected_components(self):
        cluster = run(
            profiling=True,
            steps_factory=lambda: single_kind_steps(RequestKind.WRITE, 10),
            execute_time=0.001,
        )
        # E: one modeled execution per committed write, 1 ms each, all of
        # it on the leader's execute frame.
        execute = cluster.profiler.frames()[("r0", "execute")]
        assert execute.calls == 20  # 2 clients x 10 writes
        assert execute.sim_cpu == pytest.approx(20 * 0.001)
        assert sum(
            stat.sim_cpu for path, stat in cluster.profiler.frames().items()
        ) == pytest.approx(20 * 0.001)


class TestProfilerExports:
    def test_chrome_trace_with_counters_validates(self, tmp_path):
        cluster = run(
            profiling=True, tracing=True,
            steps_factory=lambda: single_kind_steps(RequestKind.WRITE, 8),
        )
        path = cluster.export_chrome(tmp_path / "trace.json")
        counts = validate_chrome_trace(path)
        assert counts["counter_events"] > 0
        assert counts["duration_spans"] > 0

    def test_unprofiled_run_exports_no_prof_records(self, tmp_path):
        """The profiler's surfaces are ``repro profile``'s table, the
        flamegraph and the chrome counters: a timeline is the same bytes
        with profiling on or off."""
        exports = []
        for profiling in (False, True):
            cluster = run(
                profiling=profiling,
                steps_factory=lambda: single_kind_steps(RequestKind.WRITE, 5),
            )
            assert (cluster.profiler is NULL_PROFILER) is not profiling
            path = tmp_path / f"run{profiling}.jsonl"
            cluster.export_timeline(path)
            exports.append(path.read_bytes())
        assert exports[0] == exports[1]
        assert b'"record":"prof"' not in exports[0]
