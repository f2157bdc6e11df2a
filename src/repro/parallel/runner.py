"""Work-stealing multiprocess sweep runner.

Architecture: the parent owns the pending queue and each worker owns a
private duplex pipe. Idle workers are handed the next pending spec as soon
as they report done — i.e. workers *pull* work at their own pace (the
work-stealing property: a worker that lands short runs processes more of
the queue; nobody waits on a static pre-partition). Results come back on
one shared queue.

Task assignment over private pipes (instead of a shared task queue) is
what makes crash recovery safe: killing a worker cannot corrupt shared
queue state, and the parent knows exactly which spec the dead worker held,
so that spec — and only that spec — is retried on a fresh worker.

Failure model, per run:

* task raises → error record (deterministic failures retry identically,
  so exceptions are not retried).
* worker dies (crash, OOM-kill) mid-run → respawn + retry, up to
  ``retries`` times, then an error record.
* run exceeds ``timeout`` wall seconds → worker killed, respawn + retry.

``workers <= 1`` executes inline through the same dispatch path — no
subprocesses, same records — which is both the debugging mode and the
baseline the speedup acceptance test compares against.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from queue import Empty
from typing import Any

from repro.errors import ConfigError
from repro.parallel.spec import RunSpec, validate_specs
from repro.parallel.tasks import run_task

#: Parent poll interval (seconds) while waiting for worker results.
_POLL = 0.02

#: Grace given to workers to exit after the shutdown sentinel.
_JOIN_GRACE = 2.0


@dataclass(frozen=True)
class SweepOptions:
    """Execution knobs for one sweep (orthogonal to what is being run)."""

    workers: int = 1
    #: Per-run wall-clock budget in seconds; None = unlimited.
    timeout: float | None = None
    #: Extra attempts after a worker death or timeout (not after a clean
    #: task exception — those are deterministic and would fail again).
    retries: int = 1
    #: Multiprocessing start method; "fork" shares the warm parent image
    #: (fast start), "spawn" is the portable fallback.
    start_method: str = "fork"

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")


@dataclass
class RunRecord:
    """Outcome of one spec: the deterministic result plus host-side facts.

    ``result``/``error`` are deterministic (functions of the spec alone);
    ``wall``, ``worker`` and ``attempts`` are host-dependent and are kept
    out of the merged results section (see :mod:`repro.parallel.merge`).
    """

    spec: RunSpec
    result: dict[str, Any] | None = None
    error: str | None = None
    attempts: int = 1
    wall: float = 0.0
    worker: int = -1

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    """All records of one sweep plus total wall-clock."""

    records: list[RunRecord]
    wall: float
    workers: int

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def failed(self) -> list[RunRecord]:
        return [r for r in self.records if not r.ok]


# ------------------------------------------------------------------- workers
def _worker_main(conn: Any, results: Any, worker_id: int) -> None:
    """Worker loop: receive a spec, run it, report; ``None`` ends the loop.

    Exceptions are converted to error payloads here so a failing task does
    not take the worker down — only the hard failures the parent watches
    for (kill, crash) do.
    """
    while True:
        spec = conn.recv()
        if spec is None:
            break
        start = time.perf_counter()
        try:
            result = run_task(spec.task, spec.params)
            payload = {"ok": True, "result": result}
        except BaseException as exc:  # noqa: BLE001 - workers must survive
            payload = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        payload["wall"] = time.perf_counter() - start
        results.put((worker_id, spec.key, payload))


@dataclass
class _Worker:
    """Parent-side view of one worker process."""

    process: Any
    conn: Any
    current: RunSpec | None = None
    started: float = 0.0
    runs: int = field(default=0)

    @property
    def idle(self) -> bool:
        return self.current is None


# -------------------------------------------------------------------- runner
def run_sweep(
    specs: Sequence[RunSpec], options: SweepOptions | None = None
) -> SweepResult:
    """Execute every spec and return one record per spec (spec order)."""
    options = options or SweepOptions()
    specs = list(specs)
    validate_specs(specs)
    start = time.perf_counter()
    if options.workers <= 1 or len(specs) <= 1:
        records = _run_serial(specs, options)
    else:
        records = _run_parallel(specs, options)
    by_key = {record.spec.key: record for record in records}
    ordered = [by_key[spec.key] for spec in specs]
    return SweepResult(
        records=ordered,
        wall=time.perf_counter() - start,
        workers=max(1, options.workers),
    )


def _run_serial(specs: Sequence[RunSpec], options: SweepOptions) -> list[RunRecord]:
    records = []
    for spec in specs:
        run_start = time.perf_counter()
        try:
            result = run_task(spec.task, spec.params)
            record = RunRecord(spec=spec, result=result, worker=0)
        except Exception as exc:  # noqa: BLE001 - mirror the worker contract
            record = RunRecord(
                spec=spec, error=f"{type(exc).__name__}: {exc}", worker=0
            )
        record.wall = time.perf_counter() - run_start
        records.append(record)
    return records


def _run_parallel(specs: Sequence[RunSpec], options: SweepOptions) -> list[RunRecord]:
    ctx = _context(options.start_method)
    results_queue = ctx.Queue()
    pending: deque[RunSpec] = deque(specs)
    spec_by_key = {spec.key: spec for spec in specs}
    attempts: dict[str, int] = {spec.key: 0 for spec in specs}
    records: dict[str, RunRecord] = {}
    n_workers = min(options.workers, len(specs))
    next_worker_id = 0
    workers: dict[int, _Worker] = {}

    def spawn() -> None:
        nonlocal next_worker_id
        worker_id = next_worker_id
        next_worker_id += 1
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, results_queue, worker_id),
            daemon=True,
            name=f"repro-sweep-{worker_id}",
        )
        process.start()
        child_conn.close()
        workers[worker_id] = _Worker(process=process, conn=parent_conn)

    def fail_run(worker: _Worker, worker_id: int, cause: str) -> None:
        """A worker died or timed out while holding a spec: retry or record."""
        spec = worker.current
        assert spec is not None
        worker.current = None
        if attempts[spec.key] <= options.retries:
            pending.appendleft(spec)  # retry before fresh work: bounded latency
        else:
            records[spec.key] = RunRecord(
                spec=spec,
                error=f"{cause} (after {attempts[spec.key]} attempts)",
                attempts=attempts[spec.key],
                worker=worker_id,
            )

    def reap(worker_id: int, cause: str) -> None:
        """Remove a dead/killed worker, salvaging its in-flight spec."""
        worker = workers.pop(worker_id)
        if worker.current is not None:
            fail_run(worker, worker_id, cause)
        worker.conn.close()
        worker.process.join(timeout=_JOIN_GRACE)

    try:
        for _ in range(n_workers):
            spawn()
        while len(records) < len(specs):
            # Hand pending specs to idle workers (the "steal").
            for worker_id, worker in workers.items():
                if not pending:
                    break
                if worker.idle:
                    spec = pending.popleft()
                    attempts[spec.key] += 1
                    worker.conn.send(spec)
                    worker.current = spec
                    worker.started = time.perf_counter()

            # Collect finished runs.
            try:
                worker_id, key, payload = results_queue.get(timeout=_POLL)
            except Empty:
                pass
            else:
                worker = workers.get(worker_id)
                if worker is not None and worker.current is not None:
                    worker.current = None
                    worker.runs += 1
                if key not in records:  # a timed-out run may race its kill
                    records[key] = RunRecord(
                        spec=spec_by_key[key],
                        result=payload.get("result"),
                        error=payload.get("error"),
                        attempts=attempts[key],
                        wall=payload.get("wall", 0.0),
                        worker=worker_id,
                    )
                continue  # drain the queue before liveness/timeout checks

            now = time.perf_counter()
            for worker_id in list(workers):
                worker = workers[worker_id]
                if not worker.process.is_alive():
                    reap(worker_id, "worker died")
                elif (
                    options.timeout is not None
                    and worker.current is not None
                    and now - worker.started > options.timeout
                ):
                    worker.process.kill()
                    reap(worker_id, f"run exceeded {options.timeout}s timeout")

            # Keep the pool sized to the remaining work.
            in_flight = sum(1 for w in workers.values() if not w.idle)
            outstanding = len(specs) - len(records) - in_flight
            while len(workers) < min(n_workers, in_flight + outstanding):
                spawn()
            if not workers and len(records) < len(specs):
                raise RuntimeError("sweep stalled: no live workers and work left")
    finally:
        for worker in workers.values():
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers.values():
            worker.process.join(timeout=_JOIN_GRACE)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=_JOIN_GRACE)
            worker.conn.close()
        results_queue.close()
        results_queue.cancel_join_thread()

    return list(records.values())


def _context(start_method: str) -> Any:
    try:
        return mp.get_context(start_method)
    except ValueError:  # pragma: no cover - platform without fork
        return mp.get_context("spawn")


# ------------------------------------------------------------ plain results
def run_grid(
    specs: Sequence[RunSpec], workers: int = 1, timeout: float | None = None
) -> dict[str, dict[str, Any]]:
    """Run ``specs`` and return ``{key: result}`` in spec order.

    Thin convenience over :func:`run_sweep` for callers (benchmarks, the
    experiments report) that want plain results back, not records. Raises
    if any run failed — partial grids are worse than loud failures there.
    """
    sweep = run_sweep(specs, SweepOptions(workers=workers, timeout=timeout))
    failed = sweep.failed()
    if failed:
        first = failed[0]
        raise RuntimeError(
            f"{len(failed)}/{len(sweep.records)} runs failed; first: "
            f"{first.spec.key}: {first.error}"
        )
    return {record.spec.key: record.result for record in sweep.records}  # type: ignore[misc]
