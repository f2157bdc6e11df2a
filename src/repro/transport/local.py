"""Wall-clock runtime: a scheduler thread delivering in-memory messages.

One dedicated scheduler thread owns a priority queue of pending events
(message deliveries and timers) keyed by wall-clock deadline. Handlers run
*on the scheduler thread*, so each process's handlers are serialized — the
same execution model as the simulator, just against real time. Latency can
be injected per message via an optional :class:`LatencyModel`, which lets
the integration tests exercise timeout/retransmission paths for real.

Use :meth:`LocalRuntime.run_until` from the main thread to block until a
condition holds (polling), then :meth:`LocalRuntime.shutdown`.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
from collections.abc import Callable, Iterable
from typing import Any

from repro.errors import TransportError
from repro.net.latency import LatencyModel
from repro.obs.handle import NULL_OBS, Obs
from repro.sim.process import TimerHandle, payload_of
from repro.transport.wallclock import WallClockRuntime
from repro.types import ProcessId


class _LocalTimer(TimerHandle):
    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def active(self) -> bool:
        return not self._cancelled


class LocalRuntime(WallClockRuntime):
    """Threaded wall-clock runtime for :class:`repro.sim.process.Process`es."""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        seed: int = 0,
        obs: Obs = NULL_OBS,
    ) -> None:
        super().__init__(seed)
        self.latency = latency
        #: Causal tracing against the wall clock. Handlers all run on the
        #: scheduler thread, so the ambient-span discipline is safe here;
        #: context travels in the delivery/timer closures (envelope layer),
        #: exactly as in the simulated world.
        self.tracer = obs.tracer
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._lock = threading.Condition()
        self._rng = random.Random(f"{seed}/latency")
        self._stopping = False
        self._thread = threading.Thread(target=self._loop, name="repro-local-runtime", daemon=True)

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "LocalRuntime":
        if self._started:
            raise TransportError("runtime already started")
        self._started = True
        self._thread.start()
        for process in self._processes.values():
            self._push(0.0, process.on_start)
        return self

    def shutdown(self, timeout: float = 5.0) -> None:
        with self._lock:
            self._stopping = True
            self._lock.notify_all()
        if self._thread.ident is not None:  # only join a started thread
            self._thread.join(timeout=timeout)

    # -------------------------------------------------------------- internals
    def _push(self, delay: float, fn: Callable[[], None]) -> None:
        deadline = self.now + max(0.0, delay)
        with self._lock:
            heapq.heappush(self._queue, (deadline, next(self._seq), fn))
            self._lock.notify_all()

    def _send(self, src: ProcessId, dsts: Iterable[ProcessId], msg: Any) -> None:
        sender = self._processes.get(src)
        if sender is not None and sender.alive:
            for dst in dsts:
                self._post(src, dst, msg)

    def _post(self, src: ProcessId, dst: ProcessId, msg: Any) -> None:
        receiver = self._processes.get(dst)
        if receiver is None:
            raise TransportError(f"{src} sent to unknown process {dst!r}")
        delay = self.latency.sample(self._rng) if self.latency is not None else 0.0
        tracer = self.tracer
        span = None
        if tracer.enabled:
            span = tracer.start_span(
                f"msg.{type(payload_of(msg)).__name__}", pid=dst, kind="message",
                attrs={"src": src, "dst": dst},
            )

        def deliver() -> None:
            if receiver.alive:
                tracer.end(span)
                token = tracer.activate(span)
                try:
                    receiver.on_message(src, msg)
                finally:
                    tracer.restore(token)
            elif span is not None:
                span.attrs.setdefault("cause", "crashed")
                tracer.end(span, status="dropped")

        self._push(delay, deliver)

    def _set_timer(
        self, pid: ProcessId, delay: float, fn: Callable[..., None], args: tuple
    ) -> TimerHandle:
        handle = _LocalTimer()
        process = self._processes[pid]
        tracer = self.tracer
        ctx = tracer.current

        def fire() -> None:
            if handle.active and process.alive:
                token = tracer.activate(ctx)
                try:
                    fn(*args)
                finally:
                    tracer.restore(token)

        self._push(delay, fire)
        return handle

    def _loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
                if not self._queue:
                    self._lock.wait(timeout=0.05)
                    continue
                deadline, _seq, fn = self._queue[0]
                wait = deadline - self.now
                if wait > 0:
                    self._lock.wait(timeout=min(wait, 0.05))
                    continue
                heapq.heappop(self._queue)
            try:
                fn()
            except Exception:  # pragma: no cover - surfaced via test failures
                import traceback

                traceback.print_exc()
