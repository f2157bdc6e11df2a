"""Fan independent simulation runs out across worker processes.

The package is host-side tooling — nothing here runs *inside* a
simulation. Each unit of work is a :class:`~repro.parallel.spec.RunSpec`
(a task name plus params, **including the seed**: workers never derive
seeds from ambient state, so the schedule of any run is a pure function
of its spec no matter which worker executes it or in what order).

* :mod:`repro.parallel.spec` — run specs and their validation.
* :mod:`repro.parallel.tasks` — the task functions workers run.
* :mod:`repro.parallel.runner` — :func:`~repro.parallel.runner.run_grid`:
  inline, or on a forked process pool; all cells or a clear error.
"""
