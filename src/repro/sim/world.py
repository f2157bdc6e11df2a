"""The simulation world: processes + network + kernel + fault injection.

The world implements the :class:`repro.sim.process.Env` contract on top of
the DES kernel. The message path models exactly the costs the paper's
evaluation measures:

1. the sender's CPU serializes outbound messages
   (``cpu.send_completion``) — the leader's outbound fan-out is real work;
2. the network adds per-link latency (and may duplicate or drop, if the
   link is configured adversarially);
3. the receiver's CPU serializes inbound handling
   (``cpu.recv_completion``) — this queueing is what saturates throughput.

Crash semantics follow the paper's model: a crashed process executes no
steps; messages addressed to it while down are lost (its connections are
gone); on recovery the process rebuilds volatile state in ``on_recover``.
An *epoch* counter invalidates timers and queued deliveries from before
the crash. What survives a crash is whatever the process itself keeps on
simulated stable storage — for replicas that is the
:class:`repro.storage.store.StableStore` device (checkpoint + WAL, minus
writes that were never fsynced), replayed in ``on_recover``; a process
may also fail-stop during recovery (set ``alive = False``) when its
storage is untrustworthy.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from typing import Any, Protocol as TypingProtocol

from repro.errors import SimulationError
from repro.obs.handle import NULL_OBS, Obs
from repro.obs.prof.profiler import FrameStat
from repro.obs.spans import Span
from repro.sim.cpu import CpuModel, CpuProfile
from repro.sim.kernel import EventHandle, Kernel
from repro.sim.process import Env, Envelope, Process, TimerHandle, payload_of
from repro.sim.trace import TraceRecorder
from repro.transport.codec import wire_size
from repro.types import ProcessId


class NetworkLike(TypingProtocol):
    """What the world needs from a network: per-copy delivery delays.

    ``depart`` is the absolute time the message leaves the sender. The
    return value holds one delay (relative to ``depart``) per delivered
    copy: ``()`` means the message is dropped, two entries mean it is
    duplicated.
    """

    def delays(self, src: ProcessId, dst: ProcessId, depart: float) -> tuple[float, ...]: ...


class ZeroLatencyNetwork:
    """Degenerate network: everything arrives instantly. Used in unit tests."""

    def delays(self, src: ProcessId, dst: ProcessId, depart: float) -> tuple[float, ...]:
        return (0.0,)


class _SimTimer(TimerHandle):
    __slots__ = ("_event",)

    def __init__(self, event: EventHandle) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.cancel()

    @property
    def active(self) -> bool:
        return not self._event.cancelled


class _SimEnv(Env):
    """Per-process facade over the world."""

    __slots__ = ("_world", "_kernel", "_pid", "_rng")

    def __init__(self, world: "World", pid: ProcessId) -> None:
        self._world = world
        self._kernel = world.kernel
        self._pid = pid
        self._rng = world.kernel.rng(f"proc/{pid}")

    @property
    def pid(self) -> ProcessId:
        return self._pid

    @property
    def now(self) -> float:
        return self._kernel._now  # protocol code reads the clock ~14x a request

    @property
    def rng(self) -> random.Random:
        return self._rng

    def send(self, dst: ProcessId, msg: Any) -> None:
        self._world._send(self._pid, dst, msg)

    def broadcast(self, dsts: Iterable[ProcessId], msg: Any) -> None:
        self._world._send_many(self._pid, dsts, msg)

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        return self._world._set_timer(self._pid, delay, fn, *args)


class World:
    """Owns every process in one simulated deployment.

    Typical use::

        kernel = Kernel(seed=1)
        world = World(kernel, network)
        world.add(replica, cpu=CpuProfile(send_cost=3e-6, recv_cost=3e-6))
        world.add(client)
        world.start()
        kernel.run(until=10.0)

    To observe the run, build one :class:`~repro.obs.handle.Obs` and give
    the same handle to the kernel, the network, the world and every
    process (``obs=``); the world keeps whatever it was built with.
    """

    def __init__(
        self,
        kernel: Kernel,
        network: NetworkLike | None = None,
        trace: TraceRecorder | None = None,
        obs: Obs = NULL_OBS,
        measure_bytes: bool = False,
    ) -> None:
        self.kernel = kernel
        self.network: NetworkLike = network if network is not None else ZeroLatencyNetwork()
        self.trace = trace
        #: Per-message-type send/deliver/drop (and optionally byte) counts
        #: land here, keyed by the type a message carries: an
        #: :class:`~repro.sim.process.Envelope` counts as its payload's type
        #: (its bytes include the envelope). Purely passive: metrics never
        #: touch RNGs or schedules.
        self.metrics = obs.metrics
        #: Causal tracer: the world is the envelope layer, so it owns context
        #: propagation — a message span is captured at ``_send``, travels as
        #: an extra (always-present) argument through the kernel events, and
        #: is re-activated around the receiver's handler. Message dataclasses
        #: are never touched, and the event schedule is identical with
        #: tracing on or off.
        self.tracer = obs.tracer
        #: Sim-profiler (:mod:`repro.obs.prof`). Passive like the tracer:
        #: it reads the CPU-cost constants but never an RNG or a schedule,
        #: so profiled runs are byte-identical.
        self.profiler = obs.profiler
        self._measure_bytes = measure_bytes and self.metrics.enabled
        self._processes: dict[ProcessId, Process] = {}
        self._cpus: dict[ProcessId, CpuModel] = {}
        self._epochs: dict[ProcessId, int] = {}
        self._started = False
        # Hot-path caches: instrument lookups per (pid, message type), so the
        # per-message cost with metrics on is one dict hit instead of two
        # f-strings + registry lookups. Purely an access-path optimization —
        # the recorded counter values are identical with or without it.
        self._send_instruments: dict[tuple[ProcessId, type], tuple[Any, Any, Any]] = {}
        self._recv_instruments: dict[tuple[ProcessId, type], tuple[Any, Any]] = {}
        self._drop_instruments: dict[type, Any] = {}
        # Profiler caches, same pattern: one dict hit per message when
        # profiling is on. Entries are (FrameStat, cpu_cost) — the cost
        # constants are frozen per process, so they are resolved once per
        # (src, dst, type).
        self._prof_send: dict[tuple[ProcessId, ProcessId, type], tuple[FrameStat, float]] = {}
        self._prof_recv: dict[tuple[ProcessId, ProcessId, type], tuple[FrameStat, float]] = {}

    # -------------------------------------------------------------- registry
    def add(self, process: Process, cpu: CpuProfile | None = None) -> Process:
        """Register a process; returns it for chaining."""
        if process.pid in self._processes:
            raise SimulationError(f"duplicate process id {process.pid!r}")
        self._processes[process.pid] = process
        self._cpus[process.pid] = CpuModel(profile=cpu if cpu is not None else CpuProfile())
        self._epochs[process.pid] = 0
        process.bind(_SimEnv(self, process.pid))
        if self._started and process.alive:
            # late registration: start it on the next tick
            self.kernel.schedule(0.0, self._start_one, process.pid)
        return process

    def process(self, pid: ProcessId) -> Process:
        return self._processes[pid]

    def cpu(self, pid: ProcessId) -> CpuModel:
        return self._cpus[pid]

    @property
    def pids(self) -> list[ProcessId]:
        return list(self._processes)

    def start(self) -> None:
        """Invoke ``on_start`` on every registered, alive process."""
        if self._started:
            raise SimulationError("world already started")
        self._started = True
        for pid in list(self._processes):
            self._start_one(pid)

    def _start_one(self, pid: ProcessId) -> None:
        process = self._processes[pid]
        if process.alive:
            process.on_start()

    # ------------------------------------------------------------- messaging
    def _drop(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        """Trace and count one lost message (named by its payload)."""
        if self.trace is not None:
            self.trace.emit(self.kernel.now, "drop", src, dst, payload)
        if self.metrics.enabled:
            counter = self._drop_instruments.get(type(payload))
            if counter is None:
                counter = self._drop_instruments[type(payload)] = self.metrics.counter(
                    f"msg.drop.{type(payload).__name__}"
                )
            counter.inc()

    def _send_counters(self, src: ProcessId, msg_type: type) -> tuple[Any, Any, Any]:
        """Create the (msg.send, proc.send, msg.send_bytes|None) counters of
        one (sender, message type); ``_send`` reads them from the cache."""
        type_name = msg_type.__name__
        entry = self._send_instruments[src, msg_type] = (
            self.metrics.counter(f"msg.send.{type_name}"),
            self.metrics.counter(f"proc.{src}.send.{type_name}"),
            self.metrics.counter(f"msg.send_bytes.{type_name}")
            if self._measure_bytes
            else None,
        )
        return entry

    def _send(
        self, src: ProcessId, dst: ProcessId, msg: Any, size: int | None = None
    ) -> None:
        """Route one message; ``size`` lets broadcasts size it once."""
        sender = self._processes.get(src)
        if sender is None or not sender.alive:
            return  # a crashed process executes no steps
        if dst not in self._processes:
            raise SimulationError(f"{src} sent to unknown process {dst!r}")
        # Observers name a message by what it carries (payload_of, inlined
        # here and in _handle: both run once per message).
        payload = msg.msg if isinstance(msg, Envelope) else msg
        kind = type(payload)
        if self.trace is not None:
            self.trace.emit(self.kernel.now, "send", src, dst, payload)
        metrics = self.metrics
        if metrics.enabled:
            sent, proc_sent, sent_bytes = self._send_instruments.get(
                (src, kind)
            ) or self._send_counters(src, kind)
            # Counters in hand are bumped in place: six increments a
            # message, each a frame if it went through ``inc()``.
            sent.value += 1
            proc_sent.value += 1
            if sent_bytes is not None:
                sent_bytes.value += size if size is not None else wire_size(msg)
        tracer = self.tracer
        span: Span | None = None
        if tracer.enabled:
            span = tracer.start_span(
                f"msg.{kind.__name__}", pid=dst, kind="message",
                attrs={"src": src, "dst": dst},
            )
        kernel = self.kernel
        depart = self._cpus[src].send_completion(kernel._now)
        profiler = self.profiler
        if profiler.enabled:
            pkey = (src, dst, kind)
            pentry = self._prof_send.get(pkey)
            if pentry is None:
                pentry = self._prof_send[pkey] = (
                    profiler.stat(
                        (str(src),
                         f"send.{kind.__name__}.{profiler.actor_kind(dst)}")
                    ),
                    self._cpus[src].send_booking,
                )
            pentry[0].add_cpu(pentry[1])
        copies = self.network.delays(src, dst, depart)
        if not copies:
            self._drop(src, dst, payload)
            if span is not None:
                cause = getattr(self.network, "last_drop_cause", None)
                if cause:
                    span.attrs["cause"] = cause
                tracer.end(span, status="dropped")
        elif len(copies) > 1:
            # Duplicated delivery: mirror the drop-cause plumbing so the
            # duplicate shows up in trace timelines and on the message span.
            if self.trace is not None:
                self.trace.emit(kernel.now, "dup", src, dst, payload)
            if metrics.enabled:
                metrics.counter(f"msg.dup.{kind.__name__}").inc()
            if span is not None:
                cause = getattr(self.network, "last_dup_cause", None)
                span.attrs["dup"] = cause or "link"
        arrive = self._arrive
        for delay in copies:
            kernel.post_at(depart + delay, arrive, src, dst, msg, span)

    def _send_many(self, src: ProcessId, dsts: Iterable[ProcessId], msg: Any) -> None:
        """Broadcast fast path: identical per-destination behaviour to a
        ``_send`` loop (same CPU booking order, same event sequence), but the
        wire size is worked out **once** per broadcast, since leaders fan
        the same payload out to every peer."""
        size = wire_size(msg) if self._measure_bytes else None
        for dst in dsts:
            self._send(src, dst, msg, size)

    def _arrive(
        self, src: ProcessId, dst: ProcessId, msg: Any, span: Span | None
    ) -> None:
        receiver = self._processes[dst]
        if not receiver.alive:
            self._drop(src, dst, payload_of(msg))
            if span is not None:
                span.attrs.setdefault("cause", "crashed")
                self.tracer.end(span, status="dropped")
            return
        kernel = self.kernel
        completion = self._cpus[dst].recv_completion(kernel._now)
        profiler = self.profiler
        if profiler.enabled:
            kind = type(payload_of(msg))
            pkey = (src, dst, kind)
            pentry = self._prof_recv.get(pkey)
            if pentry is None:
                pentry = self._prof_recv[pkey] = (
                    profiler.stat(
                        (str(dst),
                         f"recv.{kind.__name__}.{profiler.actor_kind(src)}")
                    ),
                    self._cpus[dst].recv_booking,
                )
            pentry[0].add_cpu(pentry[1])
        kernel.post_at(completion, self._handle, src, dst, msg, self._epochs[dst], span)

    def _handle(
        self, src: ProcessId, dst: ProcessId, msg: Any, epoch: int, span: Span | None
    ) -> None:
        receiver = self._processes[dst]
        payload = msg.msg if isinstance(msg, Envelope) else msg
        if not receiver.alive or self._epochs[dst] != epoch:
            self._drop(src, dst, payload)
            if span is not None:
                span.attrs.setdefault("cause", "stale_epoch")
                self.tracer.end(span, status="dropped")
            return
        if self.trace is not None:
            self.trace.emit(self.kernel.now, "deliver", src, dst, payload)
        kind = type(payload)
        metrics = self.metrics
        if metrics.enabled:
            key = (dst, kind)
            entry = self._recv_instruments.get(key)
            if entry is None:
                type_name = kind.__name__
                entry = self._recv_instruments[key] = (
                    metrics.counter(f"msg.deliver.{type_name}"),
                    metrics.counter(f"proc.{dst}.recv.{type_name}"),
                )
            entry[0].value += 1
            entry[1].value += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.end(span)  # duplicate copies keep the first delivery's end
            token = tracer.activate(span)
            try:
                receiver.on_message(src, msg)
            finally:
                tracer.restore(token)
        else:
            receiver.on_message(src, msg)

    # ----------------------------------------------------------------- timers
    def _set_timer(
        self, pid: ProcessId, delay: float, fn: Callable[..., None], *args: Any
    ) -> TimerHandle:
        epoch = self._epochs[pid]
        # Timers carry the ambient span across the delay: a retransmit or a
        # deferred execution stays inside the request that armed it.
        ctx = self.tracer.current

        def fire() -> None:
            process = self._processes[pid]
            if process.alive and self._epochs[pid] == epoch:
                if self.trace is not None:
                    self.trace.emit(self.kernel.now, "timer", pid, None, fn.__name__)
                token = self.tracer.activate(ctx)
                try:
                    fn(*args)
                finally:
                    self.tracer.restore(token)

        return _SimTimer(self.kernel.schedule(delay, fire))

    # ------------------------------------------------------------ fault hooks
    def crash(self, pid: ProcessId) -> None:
        """Crash ``pid``: volatile state and pending timers/deliveries die."""
        process = self._processes[pid]
        if not process.alive:
            return
        process.alive = False
        self._epochs[pid] += 1
        self._cpus[pid].reset()
        if self.trace is not None:
            self.trace.emit(self.kernel.now, "crash", pid, None)
        if self.tracer.enabled:
            self.tracer.instant(f"crash:{pid}", pid=pid, kind="fault", parent=None)
        process.on_crash()

    def recover(self, pid: ProcessId) -> None:
        """Recover ``pid``; it rebuilds volatile state in ``on_recover``."""
        process = self._processes[pid]
        if process.alive:
            return
        process.alive = True
        if self.trace is not None:
            self.trace.emit(self.kernel.now, "recover", pid, None)
        if self.tracer.enabled:
            self.tracer.instant(f"recover:{pid}", pid=pid, kind="fault", parent=None)
        process.on_recover()

    def alive_pids(self) -> list[ProcessId]:
        return [pid for pid, p in self._processes.items() if p.alive]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<World processes={len(self._processes)} t={self.kernel.now:.6f}s>"


__all__ = ["World", "NetworkLike", "ZeroLatencyNetwork"]
