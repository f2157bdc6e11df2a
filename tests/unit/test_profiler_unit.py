"""Unit tests for the sim-profiler's collection and export machinery."""

from __future__ import annotations

import re

import pytest

from repro.obs.prof.export import (
    collapsed_lines,
    counter_samples,
    frame_rows,
    write_collapsed,
)
from repro.obs.prof.profiler import NULL_PROFILER, FrameStat, NullProfiler, SimProfiler


def make_profiler() -> SimProfiler:
    return SimProfiler(sample_interval=0.01)


class TestFrameStat:
    def test_add_cpu_accumulates_calls_and_seconds(self):
        stat = FrameStat()
        stat.add_cpu(0.5)
        stat.add_cpu(0.25)
        assert stat.calls == 2
        assert stat.sim_cpu == 0.75


class TestScopes:
    def test_nested_paths_interned_per_parent(self):
        profiler = make_profiler()
        for _ in range(3):
            profiler.stat(("a", "b")).add_cpu(1e-6)
        profiler.stat(("a",)).add_cpu(2e-6)
        stats = profiler.frames()
        assert stats[("a", "b")].calls == 3
        assert stats[("a",)].calls == 1
        # The parent's total is its own, not its children's.
        assert stats[("a",)].sim_cpu == 2e-6

    def test_stat_creates_and_caches_path(self):
        profiler = make_profiler()
        stat = profiler.stat(("r0", "send.Prepare.replica"))
        assert profiler.stat(("r0", "send.Prepare.replica")) is stat
        stat.add_cpu(1e-6)
        assert profiler.frames()[("r0", "send.Prepare.replica")].sim_cpu == 1e-6


class TestSampling:
    def test_sample_rows_are_sorted_and_advance_next_sample(self):
        profiler = make_profiler()
        profiler.register_actor("r1", "replica")
        profiler.register_actor("r0", "replica")
        profiler.stat(("r0", "send.X.replica")).add_cpu(2e-3)
        profiler.sample(0.5, events=10, heap=3)
        assert profiler.next_sample == 0.5 + profiler.sample_interval
        names = [(actor, name) for _t, actor, name, _v in profiler.samples]
        assert names == [
            ("r0", "sim_cpu_ms"),
            ("r1", "sim_cpu_ms"),
            ("kernel", "events_processed"),
            ("kernel", "heap_size"),
        ]
        values = {(a, n): v for _t, a, n, v in profiler.samples}
        assert values[("r0", "sim_cpu_ms")] == pytest.approx(2.0)
        assert values[("r1", "sim_cpu_ms")] == 0.0

    def test_counter_samples_adapts_rows(self):
        profiler = make_profiler()
        profiler.register_actor("r0", "replica")
        profiler.sample(0.25, events=1, heap=1)
        rows = counter_samples(profiler)
        assert rows[0] == {
            "actor": "r0", "name": "sim_cpu_ms", "t": 0.25, "value": 0.0,
        }


class TestExport:
    COLLAPSED_LINE = re.compile(r"^\S+( \S+)* \d+$")

    def populated(self) -> SimProfiler:
        profiler = make_profiler()
        profiler.register_actor("r0", "replica")
        profiler.register_actor("c0", "client")
        profiler.stat(("r0", "send.AcceptBatch.replica")).add_cpu(5e-6)
        profiler.stat(("r0", "recv.ClientRequest.client")).add_cpu(3e-6)
        profiler.stat(("c0", "send.ClientRequest.replica")).add_cpu(1e-6)
        profiler.stat(("r0", "execute")).add_cpu(2e-3)
        profiler.stat(("r1", "recv.ClientRequest.client")).add_cpu(0.0)
        return profiler

    def test_collapsed_sim_lines_format_and_sorting(self):
        lines = collapsed_lines(self.populated())
        assert lines == sorted(lines)
        for line in lines:
            assert self.COLLAPSED_LINE.match(line), line
        assert "r0;execute 2000000" in lines
        # A frame that was called but booked no sim CPU is dropped.
        assert not any(line.startswith("r1") for line in lines)

    def test_write_collapsed_round_trip(self, tmp_path):
        path = write_collapsed(self.populated(), tmp_path / "flame.txt")
        text = path.read_text()
        assert text.endswith("\n")
        assert text.splitlines() == collapsed_lines(self.populated())

    def test_frame_rows_integer_nanoseconds(self):
        rows = {path: (calls, sim) for path, calls, sim in frame_rows(self.populated())}
        assert rows[("r0", "execute")] == (1, 2_000_000)
        assert rows[("r1", "recv.ClientRequest.client")] == (1, 0)


class TestNullProfiler:
    def test_disabled_and_inert(self):
        assert NULL_PROFILER.enabled is False
        assert isinstance(NULL_PROFILER, NullProfiler)
        NULL_PROFILER.register_actor("r0", "replica")
        NULL_PROFILER.sample(1.0, 1, 1)
        assert NULL_PROFILER.frames() == {}
        assert NULL_PROFILER.actors == {}
        assert NULL_PROFILER.samples == []
        assert NULL_PROFILER.actor_kind("r0") == "other"

    def test_stat_returns_shared_sink(self):
        sink = NULL_PROFILER.stat(("a", "b"))
        assert sink is NULL_PROFILER.stat(("c",))
        sink.add_cpu(1.0)  # harmless; nothing observable
        assert NULL_PROFILER.frames() == {}

    def test_next_sample_never_fires(self):
        assert NULL_PROFILER.next_sample == float("inf")
