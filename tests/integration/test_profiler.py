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
from repro.obs.prof.export import attribution, collapsed_lines
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

    def test_scopes_balanced_at_end_of_run(self):
        def crash_and_replay() -> Cluster:
            """``replay`` is the one scope no fault-free run enters: crash
            a backup mid-run and let it recover from its WAL (this input
            replaced the balance half of lint rule OBS002)."""
            spec = ClusterSpec(profile=make_test_profile(), seed=7,
                               profiling=True, fsync="sync")
            steps = [single_kind_steps(RequestKind.WRITE, 10) for _ in range(2)]
            cluster = Cluster(spec, steps).start()
            kernel, world = cluster.kernel, cluster.world
            kernel.schedule_at(0.002, world.crash, "r1")
            kernel.schedule_at(0.004, world.recover, "r1")
            cluster.run().drain()
            frames = collapsed_lines(cluster.profiler, metric="host")
            assert any(line.startswith("World.recover;replay ") for line in frames)
            return cluster

        finished = [
            run(profiling=True, steps_factory=steps_factory, execute_time=0.001)
            for steps_factory in (
                lambda: single_kind_steps(RequestKind.WRITE, 10),
                lambda: single_kind_steps(RequestKind.READ, 10),
                lambda: paper_txn_steps("optimized", 3, 5),
            )
        ]
        finished.append(crash_and_replay())
        for cluster in finished:
            assert cluster.profiler._stack == []


class TestProfilerDeterminism:
    @pytest.mark.parametrize("steps_factory", WORKLOADS)
    def test_sim_collapsed_output_byte_identical(self, steps_factory):
        a = run(profiling=True, steps_factory=steps_factory)
        b = run(profiling=True, steps_factory=steps_factory)
        # Sim-CPU frames and counter samples derive only from simulation
        # state, so two runs of the same seed agree to the byte.
        assert collapsed_lines(a.profiler, metric="sim") == \
            collapsed_lines(b.profiler, metric="sim")
        assert a.profiler.samples == b.profiler.samples

    def test_frames_cover_protocol_and_messaging(self):
        cluster = run(
            profiling=True,
            steps_factory=lambda: single_kind_steps(RequestKind.WRITE, 10),
            execute_time=0.001,
        )
        leaves = {path[-1] for path in cluster.profiler.frames()}
        assert "execute" in leaves
        assert "apply" in leaves
        assert "propose" in leaves
        assert any(leaf.startswith("send.AcceptBatch") for leaf in leaves)
        assert any(leaf.startswith("on_message.") for leaf in leaves)

    def test_attribution_accounts_expected_components(self):
        cluster = run(
            profiling=True,
            steps_factory=lambda: single_kind_steps(RequestKind.WRITE, 10),
            execute_time=0.001,
        )
        result = attribution(cluster.profiler)
        # E: one modeled execution per committed write, 1 ms each.
        calls, seconds = result["E"]
        assert calls == 20  # 2 clients x 10 writes
        assert seconds == pytest.approx(20 * 0.001)
        # The test profile's CPU costs are zero, so M/m frames carry no
        # sim time and stay out of the attribution — but the frames
        # themselves must exist and classify correctly.
        from repro.obs.prof.export import classify_frame

        components = {
            classify_frame(path, cluster.profiler.actors)
            for path in cluster.profiler.frames()
        }
        assert {"E", "M", "m"} <= components


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

    def test_timeline_export_carries_prof_records(self, tmp_path):
        from repro.obs.timeline import load_export

        cluster = run(
            profiling=True,
            steps_factory=lambda: single_kind_steps(RequestKind.WRITE, 8),
        )
        path = cluster.export_timeline(tmp_path / "run.jsonl")
        export = load_export(path)
        assert export.skipped == 0
        assert export.prof
        paths = {tuple(r["path"]) for r in export.prof}
        assert any(p[-1].startswith("send.") for p in paths)

    def test_unprofiled_run_exports_no_prof_records(self, tmp_path):
        from repro.obs.timeline import load_export

        cluster = run(
            profiling=False,
            steps_factory=lambda: single_kind_steps(RequestKind.WRITE, 5),
        )
        assert cluster.profiler is NULL_PROFILER
        path = cluster.export_timeline(tmp_path / "run.jsonl")
        assert load_export(path).prof == []
