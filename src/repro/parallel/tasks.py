"""Task functions executed by grid workers.

Every task is a ``(params: dict) -> result`` callable that workers look up
by name in :data:`TASKS` (only the name and the params cross the process
boundary). A task's result is a pure function of its params: no host
wall-time, no worker identity.

Scenario tasks return :meth:`repro.cluster.metrics.RunResult.to_dict`, whose
latency summaries keep full :class:`~repro.util.stats.Summary` detail, so
the §4 report regenerates every table from the grid's results.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import Any


def chaos_result_task(params: dict[str, Any]) -> Any:
    """One chaos trial, as the full :class:`ChaosResult` object (picklable
    unless ``keep_cluster`` is set, which ``repro chaos --tracing`` does on
    its inline path). The seed comes from the spec — never from grid
    position — so the nemesis schedule is identical under any worker
    layout.
    """
    from repro.chaos.runner import ChaosOptions, run_chaos

    options = ChaosOptions(**params["options"])
    return run_chaos(
        params["seed"], options, keep_cluster=params.get("keep_cluster", False)
    )


def _scenario_task(scenario: str, params: dict[str, Any]) -> dict[str, Any]:
    """Run ``repro.cluster.scenarios.<scenario>(**params)``: a spec's params
    are the scenario's own keyword arguments, so its defaults apply."""
    from repro.cluster import scenarios

    return getattr(scenarios, scenario)(**params).to_dict()


TASKS: dict[str, Callable[[dict[str, Any]], Any]] = {
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
}


def run_task(task: str, params: dict[str, Any]) -> Any:
    """Dispatch one task by name (known: :func:`~repro.parallel.spec.validate_specs` checked it)."""
    return TASKS[task](params)
