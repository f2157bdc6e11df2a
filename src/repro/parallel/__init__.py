"""Parallel experiment runner: shard independent simulation runs across
worker processes with deterministic result merging.

The package is host-side tooling — nothing here runs *inside* a
simulation. Each unit of work is a :class:`~repro.parallel.spec.RunSpec`
(a task name plus JSON-ready params, **including the seed**: workers never
derive seeds from ambient state, so the schedule of any run is a pure
function of its spec no matter which worker executes it or in what order).

Layers:

* :mod:`repro.parallel.spec` — run specs and grid builders (chaos sweeps,
  the calibration set; the §4 figures grid is in :mod:`repro.experiments`).
* :mod:`repro.parallel.tasks` — the picklable task functions workers run.
* :mod:`repro.parallel.runner` — the work-stealing multiprocess pool with
  per-run timeout, retry, and crash recovery.
* :mod:`repro.parallel.merge` — deterministic merging: results keyed and
  sorted by run spec, byte-identical regardless of worker count or
  completion order; wall-clock lives in a separate timing section.
"""

from repro.parallel.merge import (
    canonical_json,
    merge_records,
    merge_sweep,
    timing_summary,
)
from repro.parallel.runner import RunRecord, SweepOptions, run_grid, run_sweep
from repro.parallel.spec import (
    RunSpec,
    calibration_grid,
    chaos_grid,
    selftest_grid,
)

__all__ = [
    "RunRecord",
    "RunSpec",
    "SweepOptions",
    "calibration_grid",
    "canonical_json",
    "chaos_grid",
    "merge_records",
    "merge_sweep",
    "run_grid",
    "run_sweep",
    "selftest_grid",
    "timing_summary",
]
