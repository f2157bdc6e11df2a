"""Run specs: the unit of work of :func:`repro.parallel.runner.run_grid`.

A :class:`RunSpec` is a task name (resolved via
:data:`repro.parallel.tasks.TASKS`), a unique ``key``, and a dict of
picklable parameters. **The seed is always an explicit parameter** —
nothing about a run depends on which worker executes it, how many workers
exist, or what ran before it. That is the whole determinism story: the
results of a grid are a pure function of its spec list.

The grid of the paper's §4 figures is
:func:`repro.experiments.figures_grid`, beside the figures it feeds;
``repro chaos`` builds one spec per seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError

#: Request kinds swept by the RRT/throughput figures (and the CLI's
#: ``--kind`` choices).
KINDS = ("original", "read", "write")


@dataclass(frozen=True)
class RunSpec:
    """One independent unit of work of a grid.

    ``key`` must be unique within a grid: results are returned keyed by
    it. ``params`` must be picklable — they are sent to workers.
    """

    task: str
    key: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            raise ConfigError("RunSpec.key must be non-empty")


def validate_specs(specs: Sequence[RunSpec]) -> None:
    """Reject duplicate keys (they would silently collapse in the results)
    and unknown task names (caller errors, not per-run failures)."""
    from repro.parallel.tasks import TASKS

    seen: dict[str, RunSpec] = {}
    for spec in specs:
        if spec.task not in TASKS:
            raise ConfigError(
                f"unknown task {spec.task!r}; known: {sorted(TASKS)}"
            )
        clash = seen.get(spec.key)
        if clash is not None:
            raise ConfigError(
                f"duplicate run key {spec.key!r} ({clash.task} vs {spec.task})"
            )
        seen[spec.key] = spec
