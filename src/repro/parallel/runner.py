"""Run a grid of specs, inline or on a process pool.

``workers <= 1`` runs the specs one after another in this process — the
debugging mode, and the only one that can return unpicklable results.
Otherwise the specs are mapped over a
:class:`~concurrent.futures.ProcessPoolExecutor` whose workers are forked
from the warm parent image. ``fork`` is safe here because the pool forks
every worker before it starts its own manager thread, and the callers
(the CLI, the benchmarks) run no other thread. Every spec carries its
seed, so the results are a pure function of the spec list at any worker
count.

Failure model — all cells or a clear error:

* a cell that raises does not stop the others; once every cell has
  finished, :func:`run_grid` raises one :class:`RuntimeError` naming each
  failed key with its error, one per line;
* a worker that dies (crash, OOM-kill) ends the grid with
  :class:`~concurrent.futures.process.BrokenProcessPool`.

Trials are deterministic, so nothing is retried.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.parallel.spec import RunSpec, validate_specs
from repro.parallel.tasks import run_task


def _attempt(spec: RunSpec) -> tuple[bool, Any]:
    """``(True, result)``, or ``(False, "<Type>: <message>")`` if it raised."""
    try:
        return True, run_task(spec.task, spec.params)
    except Exception as exc:  # noqa: BLE001 - one cell's failure is reported, not fatal
        return False, f"{type(exc).__name__}: {exc}"


def run_grid(specs: Sequence[RunSpec], workers: int = 1) -> dict[str, Any]:
    """Run ``specs`` and return ``{key: result}`` in spec order."""
    specs = list(specs)
    validate_specs(specs)
    if workers <= 1 or len(specs) <= 1:
        outcomes = [_attempt(spec) for spec in specs]
    else:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(min(workers, len(specs)), mp_context=context) as pool:
            outcomes = list(pool.map(_attempt, specs))
    failed = [f"{spec.key}: {out}" for spec, (ok, out) in zip(specs, outcomes) if not ok]
    if failed:
        raise RuntimeError("\n".join(failed))
    return {spec.key: out for spec, (_, out) in zip(specs, outcomes)}
