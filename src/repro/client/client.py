"""The closed-loop test client (§4).

"Each request is sent to all service replicas, and only the leader replica
sends a reply to the client process. A client will not send a new request
until it receives the reply associated with the previous one."

The client starts on a :class:`repro.core.messages.StartSignal` (the paper's
leader-broadcast start marker) or immediately if ``wait_for_start=False``.
It retransmits unanswered requests on a timeout — this is what re-drives
an X-Paxos read or a transaction op to a new leader after a switch (a
follower already holds each client's latest write and serves it once it
leads). Per-request and per-step
(transaction) timings are recorded for the harness.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.client.workload import Step
from repro.core.messages import Reply, StartSignal
from repro.core.requests import ClientRequest, RequestId
from repro.obs.handle import NULL_OBS, Obs
from repro.obs.spans import Span
from repro.sim.process import Process
from repro.types import ProcessId, ReplyStatus, RequestKind


@dataclass(slots=True)
class RequestRecord:
    """Timing record for one request."""

    rid: RequestId
    kind: RequestKind
    sent_at: float
    op: Any = None
    completed_at: float | None = None
    status: ReplyStatus | None = None
    value: Any = None
    retransmits: int = 0

    @property
    def rrt(self) -> float:
        """Request response time, seconds."""
        assert self.completed_at is not None, f"{self.rid} never completed"
        return self.completed_at - self.sent_at


@dataclass(slots=True)
class StepRecord:
    """Timing record for one step (= one transaction for txn workloads)."""

    label: str
    started_at: float
    completed_at: float | None = None
    aborted: bool = False
    requests: list[RequestRecord] = field(default_factory=list)

    @property
    def trt(self) -> float:
        """Transaction (step) response time, seconds."""
        assert self.completed_at is not None, f"step {self.label} never completed"
        return self.completed_at - self.started_at


class Client(Process):
    """Closed-loop client executing a list of steps."""

    def __init__(
        self,
        pid: ProcessId,
        replicas: Sequence[ProcessId],
        steps: Sequence[Step],
        timeout: float = 1.0,
        wait_for_start: bool = True,
        retry_aborted: bool = False,
        max_abort_retries: int = 10,
        backoff: float = 2.0,
        timeout_cap: float | None = None,
        jitter: float = 0.1,
        obs: Obs = NULL_OBS,
    ) -> None:
        super().__init__(pid)
        self.replicas = tuple(replicas)
        self.steps = list(steps)
        self.timeout = timeout
        self.wait_for_start = wait_for_start
        self.retry_aborted = retry_aborted
        self.max_abort_retries = max_abort_retries
        #: Retransmission backoff: each unanswered retransmit multiplies the
        #: current timeout by ``backoff``, capped at ``timeout_cap`` (default
        #: 10x the base timeout). ``jitter`` adds a seeded random fraction on
        #: top so synchronized clients desynchronize under sustained faults
        #: instead of retransmitting in lockstep. ``backoff=1.0, jitter=0.0``
        #: restores the old fixed-interval behaviour.
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        if jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.backoff = backoff
        self.timeout_cap = timeout_cap if timeout_cap is not None else 10.0 * timeout
        self.jitter = jitter

        self.records: list[StepRecord] = []
        self.done = False
        self.started_at: float | None = None
        self.finished_at: float | None = None

        self._seq = 0
        self._step_index = 0
        self._req_index = 0
        self._attempt = 0
        self._txn_id: str | None = None
        self._current: RequestRecord | None = None
        self._current_request: ClientRequest | None = None
        self._gap_taken = False
        self._timer = None
        self._timeout_current = timeout
        #: Observability sink: retransmits are counted under
        #: ``client.retransmit`` so fault runs expose retry pressure.
        self.metrics = obs.metrics
        #: Causal tracing. Each request opens a root trace span: submit ->
        #: matching Reply.
        self.tracer = obs.tracer
        self._span: Span | None = None

    # ------------------------------------------------------------- lifecycle
    def on_start(self) -> None:
        if not self.wait_for_start:
            self._begin()

    def on_message(self, src: ProcessId, msg: Any) -> None:
        if isinstance(msg, StartSignal):
            if self.started_at is None:
                self._begin()
            return
        if isinstance(msg, Reply):
            self._on_reply(src, msg)

    def _begin(self) -> None:
        self.started_at = self.now
        self._next_step()

    # ------------------------------------------------------------ step engine
    def _next_step(self) -> None:
        if self._step_index >= len(self.steps):
            self._finish()
            return
        step = self.steps[self._step_index]
        if step.gap > 0 and not self._gap_taken:
            # Think time: pace the workload so it spans a fault schedule's
            # whole horizon instead of finishing in the first few ms.
            self._gap_taken = True
            self.set_timer(step.gap, self._next_step)
            return
        self._gap_taken = False
        self._req_index = 0
        self._txn_id = (
            f"{self.pid}:{self._step_index}:{self._attempt}" if step.transactional else None
        )
        self.records.append(StepRecord(label=step.label, started_at=self.now))
        self._send_current()

    def _send_current(self) -> None:
        step = self.steps[self._step_index]
        kind, op = step.requests[self._req_index]
        rid = RequestId(self.pid, self._seq)
        self._seq += 1
        # TXN_OP: its 0-based position in the transaction; TXN_COMMIT: the
        # op count — lets a new leader detect an orphaned prefix (§3.6).
        txn_seq = sum(
            1
            for k, _o in step.requests[: self._req_index]
            if k is RequestKind.TXN_OP
        )
        request = ClientRequest(rid=rid, kind=kind, op=op, txn=self._txn_id, txn_seq=txn_seq)
        self._current_request = request
        self._current = RequestRecord(rid=rid, kind=kind, sent_at=self.now, op=op)
        self._timeout_current = self.timeout  # backoff resets per fresh request
        self.records[-1].requests.append(self._current)
        tracer = self.tracer
        if tracer.enabled:
            self._span = tracer.start_trace(
                f"request:{rid}", pid=self.pid, kind="request",
                attrs={"rid": str(rid), "kind": kind.value, "step": step.label},
            )
        token = tracer.activate(self._span)
        try:
            self.broadcast(self.replicas, request)
            self._arm_timer()
        finally:
            tracer.restore(token)

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        delay = self._timeout_current
        if self.jitter:
            delay *= 1.0 + self.jitter * self.rng.random()
        self._timer = self.set_timer(delay, self._retransmit)

    def _retransmit(self) -> None:
        if self._current is None or self._current.completed_at is not None:
            return
        assert self._current_request is not None
        self._current.retransmits += 1
        self.metrics.counter("client.retransmit").inc()
        self._timeout_current = min(self.timeout_cap, self._timeout_current * self.backoff)
        if self._span is not None:
            self._span.attrs["retransmits"] = self._current.retransmits
        token = self.tracer.activate(self._span)
        try:
            self.broadcast(self.replicas, self._current_request)
            self._arm_timer()
        finally:
            self.tracer.restore(token)

    def _on_reply(self, src: ProcessId, reply: Reply) -> None:
        current = self._current
        if current is None or reply.rid != current.rid:
            return  # stale or duplicate reply
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        current.completed_at = self.now
        current.status = reply.status
        current.value = reply.value
        self._current = None
        self._current_request = None
        self.tracer.end(
            self._span,
            status="ok" if reply.status is ReplyStatus.OK else reply.status.value,
        )
        self._span = None

        step = self.steps[self._step_index]
        record = self.records[-1]
        if reply.status is ReplyStatus.ABORTED and step.transactional:
            record.completed_at = self.now
            record.aborted = True
            if self.retry_aborted and self._attempt < self.max_abort_retries:
                self._attempt += 1
                self._next_step()  # same step index: retry with a fresh txn id
            else:
                self._attempt = 0
                self._step_index += 1
                self._next_step()
            return

        self._req_index += 1
        if self._req_index < len(step.requests):
            self._send_current()
            return
        record.completed_at = self.now
        self._attempt = 0
        self._step_index += 1
        self._next_step()

    def _finish(self) -> None:
        self.done = True
        self.finished_at = self.now

    # ---------------------------------------------------------------- results
    def request_records(self) -> list[RequestRecord]:
        return [r for step in self.records for r in step.requests]

    def rrts(self) -> list[float]:
        """Response times of completed requests, seconds."""
        return [
            r.rrt for r in self.request_records() if r.completed_at is not None
        ]

    def trts(self, include_aborted: bool = False) -> list[float]:
        """Step (transaction) response times of completed steps, seconds."""
        return [
            s.trt
            for s in self.records
            if s.completed_at is not None and (include_aborted or not s.aborted)
        ]

    @property
    def completed_requests(self) -> int:
        return sum(1 for r in self.request_records() if r.completed_at is not None)

    @property
    def completed_steps(self) -> int:
        return sum(1 for s in self.records if s.completed_at is not None and not s.aborted)
