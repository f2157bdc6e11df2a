"""Profiler exporters: collapsed flamegraph text, counter tracks, table rows.

The collapsed format is Brendan Gregg's folded-stack convention — one line
per unique frame path, ``frame;frame;frame <count>`` — directly consumable
by ``flamegraph.pl``, speedscope, and inferno. Values are integer
nanoseconds of simulated CPU.

:func:`counter_samples` adapts the profiler's deterministic counter track
to the shape :func:`repro.obs.chrome.chrome_events` merges as Perfetto
``"C"`` (counter) events.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.prof.profiler import NullProfiler, SimProfiler

__all__ = [
    "collapsed_lines",
    "counter_samples",
    "frame_rows",
    "write_collapsed",
]


def frame_rows(
    profiler: SimProfiler | NullProfiler,
) -> list[tuple[tuple[str, ...], int, int]]:
    """Sorted ``(path, calls, sim_ns)`` rows for every frame."""
    return [
        (path, stat.calls, int(round(stat.sim_cpu * 1e9)))
        for path, stat in profiler.frames().items()
    ]


def collapsed_lines(profiler: SimProfiler | NullProfiler) -> list[str]:
    """Folded-stack lines of sim-CPU nanoseconds; zero-valued frames dropped."""
    return [
        ";".join(path) + f" {sim_ns}"
        for path, _calls, sim_ns in frame_rows(profiler)
        if sim_ns > 0
    ]


def write_collapsed(profiler: SimProfiler | NullProfiler, path: str | Path) -> Path:
    """Write the collapsed flamegraph file; returns the path."""
    path = Path(path)
    text = "\n".join(collapsed_lines(profiler))
    path.write_text(text + "\n" if text else "", encoding="utf-8")
    return path


def counter_samples(profiler: SimProfiler | NullProfiler) -> list[dict[str, Any]]:
    """The deterministic counter track as chrome-exporter counter rows."""
    return [
        {"actor": actor, "name": name, "t": t, "value": value}
        for t, actor, name, value in profiler.samples
    ]
