"""Task functions executed by sweep workers.

Every task is a ``(params: dict) -> dict`` callable that workers look up by
name in :data:`TASKS` (only the name and the params cross the process
boundary, under any multiprocessing start method). Tasks return
**deterministic, JSON-ready** dicts: no host wall-time, no worker identity,
no object references — the merge layer depends on a task's output being a
pure function of its params.

Latency summaries are flattened with :func:`summary_dict` (full
:class:`~repro.util.stats.Summary` detail) so merged sweep documents carry
enough to regenerate any table without re-running.
"""

from __future__ import annotations

import os
import signal
import time
from collections.abc import Callable
from functools import partial
from typing import Any

from repro.errors import ConfigError
from repro.util.stats import Summary


def summary_dict(summary: Summary | None) -> dict[str, Any] | None:
    """Flatten a latency summary; None stays None (no samples)."""
    if summary is None:
        return None
    return {
        "n": summary.n,
        "mean": summary.mean,
        "std": summary.std,
        "ci99": summary.ci99,
        "p50": summary.p50,
        "p95": summary.p95,
        "p99": summary.p99,
        "min": summary.minimum,
        "max": summary.maximum,
    }


def _run_result_dict(result: Any) -> dict[str, Any]:
    """Common serialization for scenario ``RunResult`` objects."""
    return {
        "n_clients": result.n_clients,
        "duration": result.duration,
        "total_requests": result.total_requests,
        "total_steps": result.total_steps,
        "aborted_steps": result.aborted_steps,
        "throughput": result.throughput,
        "step_throughput": result.step_throughput,
        "total_messages": result.total_messages,
        "total_bytes": result.total_bytes,
        "rrt": summary_dict(result.rrt),
        "trt": summary_dict(result.trt),
    }


# ---------------------------------------------------------------- real tasks
def chaos_result_task(params: dict[str, Any]) -> Any:
    """One chaos trial, as the full :class:`ChaosResult` object (picklable
    unless ``keep_cluster`` is set, which ``repro chaos --tracing`` does on
    its single inline worker). The seed comes from the spec — never from
    sweep position — so the nemesis schedule is identical under any worker
    layout or retry history (the satellite regression test pins this).
    **Not JSON-ready** — ``repro sweep`` grids use :func:`chaos_task`.
    """
    from repro.chaos.runner import ChaosOptions, run_chaos

    options = ChaosOptions(**params["options"])
    return run_chaos(
        params["seed"], options, keep_cluster=params.get("keep_cluster", False)
    )


def chaos_task(params: dict[str, Any]) -> dict[str, Any]:
    return chaos_result_task(params).to_dict()


def _scenario_task(scenario: str, params: dict[str, Any]) -> dict[str, Any]:
    """Run ``repro.cluster.scenarios.<scenario>(**params)``: a spec's params
    are the scenario's own keyword arguments, so its defaults apply."""
    from repro.cluster import scenarios

    return _run_result_dict(getattr(scenarios, scenario)(**params))


# ---------------------------------------------------------- test-only tasks
def echo_task(params: dict[str, Any]) -> dict[str, Any]:
    """Return the params (optionally after sleeping). Runner/merge tests."""
    delay = params.get("sleep", 0.0)
    if delay:
        time.sleep(delay)
    return {"echo": {k: v for k, v in params.items() if k != "sleep"}}


def crash_task(params: dict[str, Any]) -> dict[str, Any]:
    """SIGKILL the worker unless ``marker`` (a file path) exists.

    First attempt: the marker is absent, so the task creates it and kills
    its own process — the parent sees a dead worker mid-run. Retry (on a
    fresh worker): the marker exists, the task completes normally. This
    gives the crash-recovery test a deterministic one-shot failure.
    """
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("crashed once\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"echo": {"recovered": True, "value": params.get("value")}}


def hang_task(params: dict[str, Any]) -> dict[str, Any]:
    """Sleep far past any sane per-run timeout. Timeout-handling tests."""
    time.sleep(params.get("duration", 3600.0))
    return {"echo": {"finished": True}}  # pragma: no cover - killed first


def failing_task(params: dict[str, Any]) -> dict[str, Any]:
    """Raise deterministically. Error-record tests."""
    raise RuntimeError(params.get("message", "task failed"))


TASKS: dict[str, Callable[[dict[str, Any]], Any]] = {
    "chaos": chaos_task,
    "chaos_result": chaos_result_task,
    "rrt": partial(_scenario_task, "rrt_scenario"),
    "throughput": partial(_scenario_task, "throughput_scenario"),
    "txn_rrt": partial(_scenario_task, "txn_rrt_scenario"),
    "txn_throughput": partial(_scenario_task, "txn_throughput_scenario"),
    "echo": echo_task,
    "crash": crash_task,
    "hang": hang_task,
    "fail": failing_task,
}


def run_task(task: str, params: dict[str, Any]) -> Any:
    """Dispatch one task by name (shared by workers and the serial path)."""
    fn = TASKS.get(task)
    if fn is None:
        raise ConfigError(f"unknown task {task!r}; known: {sorted(TASKS)}")
    return fn(params)
