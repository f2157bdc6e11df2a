"""The grid scheduling service (§2, second example — the NILE Global Planner).

Jobs are examined in First-Come-First-Serve order, overridden by priority.
The paper's point: "the service's behavior depends not only on the sequence
of requests received, but also on the processing speed of the machine" —
whether Job B (higher priority, arriving at t2) beats Job A (arriving at
t1 < t2) depends on *when* the scheduler examines the queue. We reproduce
that by time-stamping submissions with ``ctx.now`` and having ``dispatch``
choose among jobs that have arrived by ``ctx.now``: two replicas running
at different speeds (different ``now``) would pick different jobs, so the
decision must be replicated (REPRO mode ships the chosen job id).

Operations:

* ``("submit", job_id, priority)`` — write; enqueue a job (arrival = ctx.now).
* ``("dispatch",)`` — nondeterministic write; pick the next job: highest
  priority among jobs arrived by now, FCFS tie-break; returns the job id
  or None.
* ``("queue",)`` — read; pending job ids in examination order.
* ``("done",)`` — read; dispatched job ids in dispatch order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ServiceError
from repro.services.base import ExecutionContext, ExecutionResult, Service


@dataclass(frozen=True, slots=True)
class Job:
    """One submitted job."""

    job_id: str
    priority: int
    arrival: float
    seq: int  # submission order, the FCFS tie-breaker


class GridSchedulerService(Service):
    """FCFS-with-priority scheduler whose decisions depend on examination time."""

    name = "gridsched"

    def __init__(self) -> None:
        self.pending: dict[str, Job] = {}
        self.dispatched: list[str] = []
        self._seq = 0

    # ------------------------------------------------------------- execution
    def execute(self, op: Any, ctx: ExecutionContext) -> ExecutionResult:
        kind = op[0]
        if kind == "queue":
            return ExecutionResult(reply=[j.job_id for j in self._examination_order()])
        if kind == "done":
            return ExecutionResult(reply=list(self.dispatched))
        if kind == "submit":
            _, job_id, priority = op
            if job_id in self.pending or job_id in self.dispatched:
                raise ServiceError(f"job {job_id!r} already submitted")
            job = Job(job_id=job_id, priority=priority, arrival=ctx.now, seq=self._seq)
            self._seq += 1
            self.pending[job_id] = job
            return ExecutionResult(
                reply=job_id,
                delta=("submit", job_id, priority, job.arrival, job.seq),
                repro=(job.arrival, job.seq),
            )
        if kind == "dispatch":
            choice = self._choose(ctx.now)
            if choice is None:
                return ExecutionResult(reply=None, repro=None)
            del self.pending[choice]
            self.dispatched.append(choice)
            return ExecutionResult(reply=choice, delta=("dispatch", choice), repro=choice)
        raise ValueError(f"unknown gridsched op {op!r}")

    def _examination_order(self) -> list[Job]:
        """Jobs ordered by (priority desc, arrival, submission seq)."""
        return sorted(self.pending.values(), key=lambda j: (-j.priority, j.arrival, j.seq))

    def _choose(self, now: float) -> str | None:
        """The job the scheduler picks when it examines the queue at ``now``.

        Only jobs that have *arrived* by ``now`` are visible — this is the
        execution-time dependence of §2.
        """
        visible = [j for j in self._examination_order() if j.arrival <= now]
        return visible[0].job_id if visible else None

    # ----------------------------------------------------------- state moves
    def snapshot(self) -> Any:
        return (dict(self.pending), list(self.dispatched), self._seq)

    def restore(self, snap: Any) -> None:
        pending, dispatched, seq = snap
        self.pending = dict(pending)
        self.dispatched = list(dispatched)
        self._seq = seq

    def apply_delta(self, delta: Any) -> None:
        if delta is None:
            return
        kind = delta[0]
        if kind == "submit":
            _, job_id, priority, arrival, seq = delta
            self.pending[job_id] = Job(job_id, priority, arrival, seq)
            self._seq = max(self._seq, seq + 1)
        elif kind == "dispatch":
            job_id = delta[1]
            self.pending.pop(job_id, None)
            self.dispatched.append(job_id)
        else:
            raise ValueError(f"unknown gridsched delta {delta!r}")

    def replay(self, op: Any, repro: Any) -> Any:
        """Re-execute with the leader's timestamps/choice (the paper's
        'send the state of its queue when it selects a new request')."""
        kind = op[0]
        if kind == "submit":
            arrival, seq = repro
            _, job_id, priority = op
            self.pending[job_id] = Job(job_id, priority, arrival, seq)
            self._seq = max(self._seq, seq + 1)
            return job_id
        if kind == "dispatch":
            if repro is None:
                return None
            self.pending.pop(repro, None)
            self.dispatched.append(repro)
            return repro
        raise ValueError(f"cannot replay gridsched op {op!r}")

    def locks_for(self, op: Any) -> tuple[frozenset, frozenset]:
        kind = op[0]
        if kind in ("queue", "done"):
            return frozenset({"__queue__"}), frozenset()
        return frozenset(), frozenset({"__queue__"})

    def state_fingerprint(self) -> Any:
        return (
            tuple(sorted(self.pending)),
            tuple(self.dispatched),
        )
