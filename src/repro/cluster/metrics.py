"""Result collection for harness runs."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.util.stats import Summary, summarize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.harness import Cluster


@dataclass(frozen=True)
class RunResult:
    """Aggregate measurements of one harness run.

    Times are seconds; throughputs are per second. ``throughput`` counts
    individual requests (Figs. 5–8), ``step_throughput`` counts completed
    steps — i.e. transactions for transaction workloads (Fig. 9).
    """

    n_clients: int
    duration: float
    total_requests: int
    total_steps: int
    aborted_steps: int
    total_retransmits: int
    rrt: Summary | None
    trt: Summary | None
    #: Message accounting, read from the cluster's metrics registry (zeros
    #: when the run had ``metrics=False``).
    total_messages: int = 0
    total_dropped: int = 0
    total_bytes: int = 0
    #: ``(message type, sent count)`` pairs, descending by count.
    messages_by_type: tuple[tuple[str, int], ...] = ()
    #: What one scenario measures beyond the above (fsync counts, shipped
    #: payload bytes, ...), by name; rides in :meth:`to_dict`.
    extra: Mapping[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.total_requests / self.duration

    @property
    def step_throughput(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.total_steps / self.duration

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready form: a sweep task's result and the timeline's
        ``result`` record."""
        return {
            "n_clients": self.n_clients,
            "duration": self.duration,
            "total_requests": self.total_requests,
            "total_steps": self.total_steps,
            "aborted_steps": self.aborted_steps,
            "total_retransmits": self.total_retransmits,
            "throughput": self.throughput,
            "step_throughput": self.step_throughput,
            "total_messages": self.total_messages,
            "total_bytes": self.total_bytes,
            "rrt": self.rrt.to_dict() if self.rrt else None,
            "trt": self.trt.to_dict() if self.trt else None,
            **self.extra,
        }

    def describe(self) -> str:
        lines = [
            f"clients={self.n_clients} duration={self.duration * 1e3:.3f}ms "
            f"requests={self.total_requests} throughput={self.throughput:.1f}/s",
        ]
        if self.rrt is not None:
            lines.append(
                f"RRT mean={self.rrt.mean * 1e3:.3f}ms ±{self.rrt.ci99 * 1e3:.3f}ms (99% CI)"
            )
        if self.trt is not None:
            lines.append(
                f"TRT mean={self.trt.mean * 1e3:.3f}ms ±{self.trt.ci99 * 1e3:.3f}ms (99% CI) "
                f"txn throughput={self.step_throughput:.1f}/s aborted={self.aborted_steps}"
            )
        if self.total_messages:
            per_req = self.total_messages / self.total_requests if self.total_requests else 0.0
            line = (
                f"messages={self.total_messages} ({per_req:.1f}/req) "
                f"dropped={self.total_dropped}"
            )
            if self.total_bytes:
                line += f" bytes={self.total_bytes}"
            lines.append(line)
        return "\n".join(lines)


def collect(cluster: "Cluster") -> RunResult:
    """Summarize a finished run."""
    clients = cluster.clients
    starts = [c.started_at for c in clients if c.started_at is not None]
    ends = [c.finished_at for c in clients if c.finished_at is not None]
    duration = (max(ends) - min(starts)) if starts and ends else 0.0

    rrts: list[float] = []
    trts: list[float] = []
    total_requests = 0
    total_steps = 0
    aborted = 0
    retransmits = 0
    for client in clients:
        rrts.extend(client.rrts())
        trts.extend(client.trts())
        total_requests += client.completed_requests
        total_steps += client.completed_steps
        aborted += sum(1 for s in client.records if s.aborted)
        retransmits += sum(r.retransmits for r in client.request_records())

    registry = cluster.metrics
    sends = registry.counters("msg.send.")
    by_type = tuple(
        (name[len("msg.send."):], value)
        for name, value in sorted(sends.items(), key=lambda item: (-item[1], item[0]))
    )

    return RunResult(
        n_clients=len(clients),
        duration=duration,
        total_requests=total_requests,
        total_steps=total_steps,
        aborted_steps=aborted,
        total_retransmits=retransmits,
        rrt=summarize(rrts) if rrts else None,
        trt=summarize(trts) if trts else None,
        total_messages=sum(sends.values()),
        total_dropped=sum(registry.counters("msg.drop.").values()),
        total_bytes=sum(registry.counters("msg.send_bytes.").values()),
        messages_by_type=by_type,
    )


def sim_cpu_frames(cluster: "Cluster") -> list[tuple[tuple[str, ...], int, int]]:
    """Simulated CPU per process and cause, as sorted ``(path, calls, sim_ns)``
    rows: what ``repro profile`` prints and folds into a flamegraph.

    Every booking is a constant per call, so each frame is a counter the
    run already keeps times the cost the model holds for it:

    * ``<pid>;send.<T>`` / ``<pid>;recv.<T>`` — the world's
      ``proc.<pid>.send|recv.<T>`` times that process's CPU booking per
      message (the ``proc.<pid>.g<g>.send.<T>`` rows of a group count the
      same sends again and are not read);
    * ``<pid>;execute`` — ``proc.<pid>.g<g>.executions`` times
      ``execute_time`` (E, modeled on the leader);
    * ``<pid>;fsync`` — ``proc.<pid>.storage.fsyncs`` times
      ``fsync_latency`` (a storage-nemesis stall is not added).

    A message a process received but had not handled when the run stopped
    is on its CPU's ``busy_time`` and in no frame. Empty when the run kept
    no metrics.
    """
    spec = cluster.spec
    world = cluster.world
    calls: dict[tuple[str, ...], int] = {}
    costs: dict[tuple[str, ...], float] = {}
    for name, value in cluster.metrics.counters("proc.").items():
        parts = name.split(".")
        if len(parts) != 4:
            continue
        _proc, pid, head, tail = parts
        if head == "send":
            path, cost = (pid, f"send.{tail}"), world.cpu(pid).send_booking
        elif head == "recv":
            path, cost = (pid, f"recv.{tail}"), world.cpu(pid).recv_booking
        elif tail == "executions":  # head is the group, g<N>
            path, cost = (pid, "execute"), spec.execute_time
        elif (head, tail) == ("storage", "fsyncs"):
            path, cost = (pid, "fsync"), spec.fsync_latency
        else:
            continue
        calls[path] = calls.get(path, 0) + value
        costs[path] = cost
    return [(path, n, round(n * costs[path] * 1e9)) for path, n in sorted(calls.items())]
