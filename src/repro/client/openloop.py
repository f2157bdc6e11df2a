"""An open-loop (Poisson) client.

The paper's experiments are closed-loop (clients wait for each reply). An
open-loop client fires requests at exponential inter-arrival times at a
configured rate regardless of completions — the standard way to measure a
latency-vs-offered-load curve (the "hockey stick") and locate the
saturation point independently of the client count. Used by the
``latency_throughput`` record of ``repro.experiments``, through
:func:`repro.cluster.scenarios.open_loop_scenario`.

No retransmission: this client is for failure-free load studies; lost
requests would distort the load. Use :class:`repro.client.client.Client`
for anything involving faults.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.messages import Reply, StartSignal
from repro.core.requests import ClientRequest, RequestId
from repro.sim.process import Process
from repro.types import ProcessId, ReplyStatus, RequestKind


@dataclass(slots=True)
class OpenLoopStats:
    fired: int = 0
    completed: int = 0
    rrts: list[float] = field(default_factory=list)


class OpenLoopClient(Process):
    """Fires ``total`` requests at rate ``rate`` (req/s), Poisson arrivals."""

    def __init__(
        self,
        pid: ProcessId,
        replicas: Sequence[ProcessId],
        kind: RequestKind,
        op: Any,
        rate: float,
        total: int,
        wait_for_start: bool = True,
        warmup: float = 0.0,
    ) -> None:
        super().__init__(pid)
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.replicas = tuple(replicas)
        self.kind = kind
        self.op = op
        self.rate = rate
        self.total = total
        self.wait_for_start = wait_for_start
        #: Delay before the first arrival — lets the leader finish its
        #: initial recovery (this client never retransmits, so requests
        #: arriving at a not-yet-serving leader would be lost).
        self.warmup = warmup
        self.stats = OpenLoopStats()
        self._sent_at: dict[RequestId, float] = {}
        self._seq = 0
        self._started = False

    @property
    def done(self) -> bool:
        """All fired and all completed."""
        return self.stats.fired >= self.total and not self._sent_at

    # ------------------------------------------------------------- lifecycle
    def on_start(self) -> None:
        if not self.wait_for_start:
            self._begin()

    def on_message(self, src: ProcessId, msg: Any) -> None:
        if isinstance(msg, StartSignal):
            if not self._started:
                self._begin()
            return
        if isinstance(msg, Reply):
            sent = self._sent_at.pop(msg.rid, None)
            if sent is None:
                return  # duplicate reply
            if msg.status is ReplyStatus.OK:
                self.stats.completed += 1
                self.stats.rrts.append(self.now - sent)

    def _begin(self) -> None:
        self._started = True
        if self.warmup > 0:
            self.set_timer(self.warmup, self._schedule_next)
        else:
            self._schedule_next()

    def _schedule_next(self) -> None:
        if self.stats.fired >= self.total:
            return
        delay = self.rng.expovariate(self.rate)
        self.set_timer(delay, self._fire)

    def _fire(self) -> None:
        rid = RequestId(self.pid, self._seq)
        self._seq += 1
        self.stats.fired += 1
        self._sent_at[rid] = self.now
        self.broadcast(
            self.replicas, ClientRequest(rid=rid, kind=self.kind, op=self.op)
        )
        self._schedule_next()
