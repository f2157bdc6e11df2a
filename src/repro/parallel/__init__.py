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
