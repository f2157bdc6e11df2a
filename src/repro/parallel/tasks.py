"""Task functions executed by sweep workers.

Every task is a ``(params: dict) -> dict`` callable that workers look up by
name in :data:`TASKS` (only the name and the params cross the process
boundary, under any multiprocessing start method). Tasks return
**deterministic, JSON-ready** dicts: no host wall-time, no worker identity,
no object references — the merge layer depends on a task's output being a
pure function of its params.

Scenario tasks return :meth:`repro.cluster.metrics.RunResult.to_dict`, whose
latency summaries keep full :class:`~repro.util.stats.Summary` detail so
merged sweep documents carry enough to regenerate any table without
re-running.
"""

from __future__ import annotations

import os
import signal
import time
from collections.abc import Callable
from functools import partial
from typing import Any

from repro.errors import ConfigError


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

    return getattr(scenarios, scenario)(**params).to_dict()


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
    "fsync_modes": partial(_scenario_task, "fsync_modes_scenario"),
    "latency_throughput": partial(_scenario_task, "open_loop_scenario"),
    "leader_switch": partial(_scenario_task, "leader_switch_scenario"),
    "message_complexity": partial(_scenario_task, "message_complexity_scenario"),
    "sharding": partial(_scenario_task, "sharding_scenario"),
    "state_transfer": partial(_scenario_task, "state_transfer_scenario"),
    "t_sweep": partial(_scenario_task, "t_sweep_scenario"),
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
