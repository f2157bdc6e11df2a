"""``repro profile``'s sim-CPU frames, derived after the run.

Every simulated CPU booking is a constant per call, so
:func:`repro.cluster.metrics.sim_cpu_frames` rebuilds the flamegraph from
counters the run keeps anyway (sends, receives, executions, fsyncs) times
the cost the model holds for each. These tests pin the derived frames to a
golden file and to the CPU model's own busy time."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.client.workload import single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.cluster.metrics import sim_cpu_frames
from repro.net.profiles import sysnet
from repro.services.kvstore import KVStoreService
from repro.sim.cpu import CpuProfile
from repro.types import RequestKind
from tests.conftest import make_test_profile

#: ``repro profile``'s collapsed output for the command below: the one CI
#: runs, 27 frames of a 2-client write run with a modeled 1 ms E.
GOLDEN = Path(__file__).parents[1] / "fixtures" / "profile" / "write-60x2-e1ms.collapsed.txt"
GOLDEN_ARGV = [
    "profile", "--profile", "sysnet", "--kind", "write", "--requests", "60",
    "--clients", "2", "--execute-time", "0.001",
]


def run(steps_factory, seed: int = 7, execute_time: float = 0.0) -> Cluster:
    spec = ClusterSpec(profile=make_test_profile(), seed=seed, execute_time=execute_time)
    steps = [steps_factory() for _ in range(2)]
    return Cluster(spec, steps).run().drain()


def frame_table(cluster: Cluster) -> dict[tuple[str, ...], tuple[int, int]]:
    return {path: (calls, ns) for path, calls, ns in sim_cpu_frames(cluster)}


class TestProfilerDeterminism:
    def test_collapsed_output_matches_the_golden_file(self, tmp_path, capsys):
        out = tmp_path / "flamegraph.txt"
        assert main([*GOLDEN_ARGV, "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_frames_cover_protocol_and_messaging(self):
        cluster = run(
            steps_factory=lambda: single_kind_steps(RequestKind.WRITE, 10),
            execute_time=0.001,
        )
        # The test profile's CPU costs are zero, so the message frames
        # carry no sim time, but each send and receive is still counted.
        leaves = {path[-1] for path in frame_table(cluster)}
        assert "execute" in leaves
        assert "send.AcceptBatch" in leaves
        assert "recv.AcceptedBatch" in leaves
        assert "send.Reply" in leaves
        assert "recv.ClientRequest" in leaves

    @pytest.mark.parametrize("kind", [RequestKind.WRITE, RequestKind.READ, RequestKind.ORIGINAL])
    def test_attribution_accounts_expected_components(self, kind):
        cluster = run(
            steps_factory=lambda: single_kind_steps(kind, 10),
            execute_time=0.001,
        )
        # E: one modeled execution per committed write, X-Paxos read or
        # unreplicated request, 1 ms each, all of it on the leader's
        # execute frame.
        frames = frame_table(cluster)
        assert frames[("r0", "execute")] == (20, 20_000_000)  # 2 clients x 10 requests
        assert sum(ns for _calls, ns in frames.values()) == 20_000_000


class TestFramesAccountTheCpuModel:
    @pytest.mark.parametrize("elector", ["static", "omega"])
    @pytest.mark.parametrize("kind", [RequestKind.WRITE, RequestKind.READ], ids=str)
    def test_send_and_recv_frames_sum_to_busy_time(self, kind, elector):
        """On a failure-free run every message a process sent or handled
        is one booking on its CPU, so its message frames add up to the
        CPU model's own busy time. Replicas pay more to receive than to
        send here, so a frame booked at the wrong rate shows."""
        profile = replace(sysnet(), replica_cpu=CpuProfile(send_cost=5e-6, recv_cost=7e-6))
        spec = ClusterSpec(profile=profile, seed=11, elector=elector)
        cluster = Cluster(spec, [single_kind_steps(kind, 15) for _ in range(3)]).run()
        per_pid: dict[str, list[int]] = {pid: [] for pid in cluster.world.pids}
        for (pid, frame), _calls, ns in sim_cpu_frames(cluster):
            if frame.startswith(("send.", "recv.")):
                per_pid[pid].append(ns)
        for pid, frames in per_pid.items():
            busy = cluster.world.cpu(pid).busy_time
            assert busy > 0, pid
            # Each frame is rounded to the nanosecond.
            assert sum(frames) == pytest.approx(busy * 1e9, abs=len(frames) / 2), pid

    def test_group_send_rows_are_not_counted_twice(self):
        """A group also counts its sends (``proc.<pid>.g<g>.send.<T>``);
        a frame reads only the world's per-process row."""
        spec = ClusterSpec(profile=sysnet(), seed=5, groups=2, fsync="sync")
        steps = [
            single_kind_steps(RequestKind.WRITE, 12, op=lambda i: ("put", f"k{i % 8}", i))
            for _ in range(2)
        ]
        cluster = Cluster(spec, steps, service_factory=KVStoreService).run()
        frames = frame_table(cluster)
        counters = cluster.metrics.counters()
        calls, ns = frames[("r0", "send.AcceptBatch")]
        assert calls == counters["proc.r0.send.AcceptBatch"] > 0
        assert ns == round(calls * cluster.world.cpu("r0").send_booking * 1e9)
        fsyncs, fsync_ns = frames[("r1", "fsync")]
        assert fsyncs == counters["proc.r1.storage.fsyncs"] > 0
        assert fsync_ns == round(fsyncs * spec.fsync_latency * 1e9)
