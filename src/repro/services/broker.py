"""The distributed grid resource broker service (§2, first example).

"A common way to perform such selections is to use a randomized algorithm
to balance the load between resources." We implement the classic
*power-of-two-choices* randomized balancer (Mitzenmacher [23], cited by the
paper): pick two resources uniformly at random, assign the task to the less
loaded one. Replicas running this independently would diverge — exactly
the nondeterminism the paper's protocol exists to handle. REPRO-mode
transfer ships only the chosen resource name.

Operations:

* ``("add_resource", name, capacity)`` — write; register a resource.
* ``("request", task_id, demand)`` — nondeterministic write; pick a
  resource for the task, add ``demand`` to its load; returns the resource
  name or None if nothing fits.
* ``("release", task_id)`` — write; return the task's demand to the pool.
* ``("load", name)`` — read; a resource's current load.
* ``("placements",)`` — read; mapping of task -> resource.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ServiceError
from repro.services.base import ExecutionContext, ExecutionResult, Service


class ResourceBrokerService(Service):
    """Randomized resource broker with power-of-two-choices placement."""

    name = "broker"

    def __init__(self) -> None:
        #: resource name -> (capacity, load)
        self.resources: dict[str, list[float]] = {}
        #: task id -> (resource, demand)
        self.placements: dict[str, tuple[str, float]] = {}

    # ------------------------------------------------------------- execution
    def execute(self, op: Any, ctx: ExecutionContext) -> ExecutionResult:
        kind = op[0]
        if kind == "load":
            entry = self.resources.get(op[1])
            return ExecutionResult(reply=None if entry is None else entry[1])
        if kind == "placements":
            return ExecutionResult(reply=dict(self.placements))
        if kind == "add_resource":
            _, name, capacity = op
            if name in self.resources:
                raise ServiceError(f"resource {name!r} already registered")
            self.resources[name] = [float(capacity), 0.0]
            return ExecutionResult(
                reply=name,
                delta=("add_resource", name, capacity),
                repro=name,
            )
        if kind == "request":
            _, task_id, demand = op
            if task_id in self.placements:
                raise ServiceError(f"task {task_id!r} already placed")
            choice = self._pick(float(demand), ctx)
            if choice is None:
                return ExecutionResult(reply=None, repro=None)
            self._place(task_id, choice, float(demand))
            return ExecutionResult(
                reply=choice,
                delta=("place", task_id, choice, demand),
                repro=choice,
            )
        if kind == "release":
            _, task_id = op
            placement = self.placements.get(task_id)
            if placement is None:
                return ExecutionResult(reply=False, repro=False)
            self._unplace(task_id)
            return ExecutionResult(reply=True, delta=("release", task_id), repro=True)
        raise ValueError(f"unknown broker op {op!r}")

    def _pick(self, demand: float, ctx: ExecutionContext) -> str | None:
        """Power-of-two-choices among resources with spare capacity."""
        eligible = [
            name
            for name, (capacity, load) in self.resources.items()
            if capacity - load >= demand
        ]
        if not eligible:
            return None
        if len(eligible) == 1:
            return eligible[0]
        first, second = ctx.rng.sample(eligible, 2)
        return first if self.resources[first][1] <= self.resources[second][1] else second

    def _place(self, task_id: str, resource: str, demand: float) -> None:
        self.resources[resource][1] += demand
        self.placements[task_id] = (resource, demand)

    def _unplace(self, task_id: str) -> None:
        placement = self.placements.pop(task_id, None)
        if placement is not None:
            resource, demand = placement
            self.resources[resource][1] -= demand

    # ----------------------------------------------------------- state moves
    def snapshot(self) -> Any:
        return (
            {name: list(entry) for name, entry in self.resources.items()},
            dict(self.placements),
        )

    def restore(self, snap: Any) -> None:
        resources, placements = snap
        self.resources = {name: list(entry) for name, entry in resources.items()}
        self.placements = dict(placements)

    def apply_delta(self, delta: Any) -> None:
        if delta is None:
            return
        kind = delta[0]
        if kind == "add_resource":
            self.resources[delta[1]] = [float(delta[2]), 0.0]
        elif kind == "place":
            _, task_id, resource, demand = delta
            self._place(task_id, resource, float(demand))
        elif kind == "release":
            self._unplace(delta[1])
        else:
            raise ValueError(f"unknown broker delta {delta!r}")

    def replay(self, op: Any, repro: Any) -> Any:
        """Re-execute with the leader's choice instead of a fresh random draw."""
        kind = op[0]
        if kind == "add_resource":
            self.resources[op[1]] = [float(op[2]), 0.0]
            return op[1]
        if kind == "request":
            if repro is None:
                return None
            self._place(op[1], repro, float(op[2]))
            return repro
        if kind == "release":
            if repro:
                self._unplace(op[1])
            return repro
        raise ValueError(f"cannot replay broker op {op!r}")

    def locks_for(self, op: Any) -> tuple[frozenset, frozenset]:
        kind = op[0]
        if kind in ("load",):
            return frozenset({op[1]}), frozenset()
        if kind == "placements":
            return frozenset({"__all__"}), frozenset()
        return frozenset(), frozenset({"__all__"})

    def state_fingerprint(self) -> Any:
        return (
            tuple(sorted((n, tuple(e)) for n, e in self.resources.items())),
            tuple(sorted(self.placements.items())),
        )
