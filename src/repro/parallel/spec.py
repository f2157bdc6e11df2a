"""Run specs and grid builders for parallel sweeps.

A :class:`RunSpec` is the unit of scheduling: a task name (resolved via
:data:`repro.parallel.tasks.TASKS`), a unique sortable ``key``, and a dict
of JSON-ready parameters. **The seed is always an explicit parameter** —
nothing about a run depends on which worker executes it, how many workers
exist, or what ran before it. That is the whole determinism story: the
merged output of a sweep is a pure function of its spec list.

Grid builders turn CLI-level arguments into spec lists. They are plain
functions so tests can call them directly and assert the seed layout. The
grid of the paper's §4 figures is :func:`repro.experiments.figures_grid`,
beside the figures it feeds.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError

#: Request kinds swept by the RRT/throughput figures (and the CLI's
#: ``--kind`` choices).
KINDS = ("original", "read", "write")


@dataclass(frozen=True)
class RunSpec:
    """One independent unit of work for the sweep runner.

    ``key`` must be unique within a sweep; merged results are sorted by it,
    so choose keys that sort the way reports should read (zero-padded
    seeds, ``profile/kind`` paths, ...). ``params`` must be picklable and
    JSON-serializable — they are sent to workers and embedded verbatim in
    the merged document.
    """

    task: str
    key: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            raise ConfigError("RunSpec.key must be non-empty")

    def to_dict(self) -> dict[str, Any]:
        return {"task": self.task, "key": self.key, "params": dict(self.params)}


def validate_specs(specs: Sequence[RunSpec]) -> None:
    """Reject duplicate keys (they would silently collapse in the merge)
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


# --------------------------------------------------------------------- grids
def chaos_grid(
    seeds: int = 20,
    first_seed: int = 0,
    protocols: Sequence[str] | None = None,
    **option_overrides: Any,
) -> list[RunSpec]:
    """One chaos trial per (protocol, seed).

    Every spec carries its own seed and a fully materialized options dict —
    a worker reconstructs ``ChaosOptions(**params["options"])`` and calls
    ``run_chaos(params["seed"], options)``. Nothing is derived from sweep
    position or worker identity, so a trial's nemesis schedule is identical
    whether the sweep runs serially, on 4 workers, or after a retry.
    """
    from repro.chaos.runner import PROTOCOLS, ChaosOptions

    if protocols is None:
        protocols = ("basic",)
    for protocol in protocols:
        if protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {protocol!r}; known: {PROTOCOLS}")
    specs = []
    for protocol in protocols:
        options = ChaosOptions(protocol=protocol, **option_overrides)
        for seed in range(first_seed, first_seed + seeds):
            specs.append(
                RunSpec(
                    task="chaos",
                    key=f"chaos/{protocol}/seed={seed:06d}",
                    params={
                        "seed": seed,
                        "options": dataclasses.asdict(options),
                    },
                )
            )
    return specs


def calibration_grid(samples: int = 400, seeds: int = 4) -> list[RunSpec]:
    """The calibration set: per-profile RRT runs across several seeds.

    Used when re-fitting profile constants — many seeds of the same cell
    give the across-seed spread that the calibration docs report.
    """
    specs = []
    for profile in ("sysnet", "berkeley_princeton", "wan"):
        for kind in KINDS:
            for seed in range(1, 1 + seeds):
                specs.append(
                    RunSpec(
                        task="rrt",
                        key=f"calibration/{profile}/{kind}/seed={seed:04d}",
                        params={
                            "profile": profile,
                            "kind": kind,
                            "samples": samples,
                            "seed": seed,
                        },
                    )
                )
    return specs


def selftest_grid(runs: int = 32, sleep: float = 0.05) -> list[RunSpec]:
    """Runner self-test: ``runs`` sleep-bound echo tasks.

    Demonstrates (and lets CI measure) scheduler overlap independent of
    core count — sleeps release the CPU, so the speedup at N workers
    approaches N even on a single-core box. Results are still
    deterministic (each task echoes its params), so the byte-identical
    merge contract is exercised too.
    """
    return [
        RunSpec(
            task="echo",
            key=f"selftest/{index:04d}",
            params={"sleep": sleep, "index": index},
        )
        for index in range(runs)
    ]
