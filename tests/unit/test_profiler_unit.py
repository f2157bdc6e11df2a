"""Unit tests for the sim-profiler's collection and export machinery.

Host time is injected through ``host_clock`` (a fake counter), so the
self-time/child-time arithmetic is asserted exactly, not approximately.
"""

from __future__ import annotations

import re

import pytest

from repro.obs.prof.export import (
    attribution,
    classify_frame,
    collapsed_lines,
    counter_samples,
    frame_rows,
    leaf_is_component,
    write_collapsed,
)
from repro.obs.prof.profiler import NULL_PROFILER, FrameStat, NullProfiler, SimProfiler


class FakeHostClock:
    """Deterministic nanosecond counter: each read advances by ``step``."""

    def __init__(self, step: int = 100):
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


def make_profiler(step: int = 100) -> tuple[SimProfiler, FakeHostClock]:
    clock = FakeHostClock(step)
    profiler = SimProfiler(clock=lambda: 0.0, host_clock=clock, sample_interval=0.01)
    return profiler, clock


class TestFrameStat:
    def test_add_cpu_accumulates_calls_and_seconds(self):
        stat = FrameStat()
        stat.add_cpu(0.5)
        stat.add_cpu(0.25)
        assert stat.calls == 2
        assert stat.sim_cpu == 0.75
        assert stat.host_ns == 0


class TestScopes:
    def test_enter_exit_records_self_time(self):
        profiler, _clock = make_profiler(step=100)
        profiler.enter("execute")
        profiler.exit()
        stats = profiler.frames()
        assert set(stats) == {("execute",)}
        stat = stats[("execute",)]
        assert stat.calls == 1
        assert stat.host_ns == 100  # one clock step between enter and exit

    def test_child_time_excluded_from_parent(self):
        profiler, _clock = make_profiler(step=100)
        profiler.enter("propose")   # read 1
        profiler.enter("execute")   # read 2
        profiler.exit()             # read 3: child elapsed = 100
        profiler.exit()             # read 4: parent elapsed = 300, child 100
        stats = profiler.frames()
        assert stats[("propose", "execute")].host_ns == 100
        assert stats[("propose",)].host_ns == 200  # 300 elapsed - 100 child

    def test_nested_paths_interned_per_parent(self):
        profiler, _clock = make_profiler()
        for _ in range(3):
            profiler.enter("a")
            profiler.enter("b")
            profiler.exit()
            profiler.exit()
        stats = profiler.frames()
        assert stats[("a", "b")].calls == 3
        assert stats[("a",)].calls == 3

    def test_enter_handler_pushes_actor_and_handler_frames(self):
        profiler, _clock = make_profiler(step=100)
        profiler.enter_handler("r0", "on_message.Prepare")
        profiler.exit_handler()
        stats = profiler.frames()
        # The handler frame gets the self time; the actor frame is a pure
        # grouping node (all of its time lives in children).
        assert stats[("r0", "on_message.Prepare")].calls == 1
        assert stats[("r0", "on_message.Prepare")].host_ns == 100
        assert ("r0",) not in stats  # zero calls, zero time -> pruned

    def test_handler_elapsed_propagates_to_enclosing_scope(self):
        profiler, _clock = make_profiler(step=100)
        profiler.enter("event")                       # read 1
        profiler.enter_handler("r0", "on_start")      # read 2 (shared)
        profiler.exit_handler()                       # read 3
        profiler.exit()                               # read 4
        stats = profiler.frames()
        # event: elapsed 300, child (handler) elapsed 100 -> 200 self.
        assert stats[("event",)].host_ns == 200

    def test_event_aliases_are_the_same_mechanics(self):
        profiler, _clock = make_profiler(step=50)
        profiler.enter_event("Kernel.run")
        profiler.exit_event()
        assert profiler.frames()[("Kernel.run",)].host_ns == 50

    def test_stat_creates_and_caches_path(self):
        profiler, _clock = make_profiler()
        stat = profiler.stat(("r0", "send.Prepare.replica"))
        assert profiler.stat(("r0", "send.Prepare.replica")) is stat
        stat.add_cpu(1e-6)
        assert profiler.frames()[("r0", "send.Prepare.replica")].sim_cpu == 1e-6


class TestSampling:
    def test_sample_rows_are_sorted_and_advance_next_sample(self):
        profiler, _clock = make_profiler()
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
        profiler, _clock = make_profiler()
        profiler.register_actor("r0", "replica")
        profiler.sample(0.25, events=1, heap=1)
        rows = counter_samples(profiler)
        assert rows[0] == {
            "actor": "r0", "name": "sim_cpu_ms", "t": 0.25, "value": 0.0,
        }


class TestExport:
    COLLAPSED_LINE = re.compile(r"^\S+( \S+)* \d+$")

    def populated(self) -> SimProfiler:
        profiler, _clock = make_profiler(step=100)
        profiler.register_actor("r0", "replica")
        profiler.register_actor("c0", "client")
        profiler.stat(("r0", "send.AcceptBatch.replica")).add_cpu(5e-6)
        profiler.stat(("r0", "recv.ClientRequest.client")).add_cpu(3e-6)
        profiler.stat(("c0", "send.ClientRequest.replica")).add_cpu(1e-6)
        profiler.stat(("r0", "execute")).add_cpu(2e-3)
        profiler.enter("propose")
        profiler.exit()
        return profiler

    def test_collapsed_sim_lines_format_and_sorting(self):
        lines = collapsed_lines(self.populated(), metric="sim")
        assert lines == sorted(lines)
        for line in lines:
            assert self.COLLAPSED_LINE.match(line), line
        assert "r0;execute 2000000" in lines
        # The host-only frame carries zero sim ns and is dropped.
        assert not any(line.startswith("propose") for line in lines)

    def test_collapsed_host_metric(self):
        lines = collapsed_lines(self.populated(), metric="host")
        assert lines == ["propose 100"]

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError, match="unknown collapsed metric"):
            collapsed_lines(self.populated(), metric="wall")

    def test_write_collapsed_round_trip(self, tmp_path):
        path = write_collapsed(self.populated(), tmp_path / "flame.txt")
        text = path.read_text()
        assert text.endswith("\n")
        assert text.splitlines() == collapsed_lines(self.populated())

    def test_frame_rows_integer_nanoseconds(self):
        rows = {path: (calls, sim, host)
                for path, calls, sim, host in frame_rows(self.populated())}
        assert rows[("r0", "execute")] == (1, 2_000_000, 0)
        assert rows[("propose",)] == (1, 0, 100)


class TestAttribution:
    def test_classify_frame_components(self):
        actors = {"r0": "replica", "c0": "client"}
        assert classify_frame(("r0", "execute"), actors) == "E"
        assert classify_frame(("r0", "send.AcceptBatch.replica"), actors) == "m"
        assert classify_frame(("r0", "send.Reply.client"), actors) == "M"
        assert classify_frame(("c0", "send.ClientRequest.replica"), actors) == "M"
        assert classify_frame(("r0", "on_message.Prepare"), actors) == "other"

    def test_leaf_is_component(self):
        assert leaf_is_component(("r0", "execute"))
        assert leaf_is_component(("r0", "send.X.replica"))
        assert leaf_is_component(("r0", "recv.X.client"))
        assert not leaf_is_component(("r0", "on_message.X"))
        assert not leaf_is_component(("r0", "timer.fire"))

    def test_attribution_rolls_up_sim_cpu_only(self):
        profiler, _clock = make_profiler()
        profiler.register_actor("r0", "replica")
        profiler.register_actor("c0", "client")
        profiler.stat(("r0", "send.AcceptBatch.replica")).add_cpu(5e-6)
        profiler.stat(("r0", "recv.ClientRequest.client")).add_cpu(3e-6)
        profiler.stat(("r0", "execute")).add_cpu(2e-3)
        # A host-time scope sharing the "execute" leaf must not double in.
        profiler.enter("execute")
        profiler.exit()
        result = attribution(profiler)
        assert result["E"] == (1, pytest.approx(2e-3))
        assert result["m"] == (1, pytest.approx(5e-6))
        assert result["M"] == (1, pytest.approx(3e-6))
        assert result["other"] == (0, 0.0)


class TestNullProfiler:
    def test_disabled_and_inert(self):
        assert NULL_PROFILER.enabled is False
        assert isinstance(NULL_PROFILER, NullProfiler)
        NULL_PROFILER.enter("anything")
        NULL_PROFILER.exit()
        NULL_PROFILER.enter_handler("r0", "f")
        NULL_PROFILER.exit_handler()
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
