"""A synchronous in-memory ``Env``: real processes, no simulator, no sockets.

The ``core.*_us`` rungs want the host cost of the protocol handlers alone.
:class:`Loopback` delivers every message from a deque in send order with
zero latency, keeps a manual clock that only moves when a timer is fired
on demand, and charges no CPU model — whatever time a run takes here was
spent in ``repro.core`` / ``repro.client`` / ``repro.storage`` code.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.sim.process import Env, Process, TimerHandle
from repro.types import ProcessId


class _Timer(TimerHandle):
    __slots__ = ("_bus",)

    def __init__(self, bus: "Loopback") -> None:
        self._bus = bus

    def cancel(self) -> None:
        self._bus._timers.pop(self, None)

    @property
    def active(self) -> bool:
        return self in self._bus._timers


class _LoopbackEnv(Env):
    __slots__ = ("_bus", "_pid", "_rng")

    def __init__(self, bus: "Loopback", pid: ProcessId) -> None:
        self._bus = bus
        self._pid = pid
        self._rng = random.Random(f"{bus.seed}/proc/{pid}")

    @property
    def pid(self) -> ProcessId:
        return self._pid

    @property
    def now(self) -> float:
        return self._bus.now

    @property
    def rng(self) -> random.Random:
        return self._rng

    def send(self, dst: ProcessId, msg: Any) -> None:
        self._bus._queue.append((self._pid, dst, msg))

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        bus = self._bus
        handle = _Timer(bus)
        bus._timers[handle] = (bus.now + delay, fn, args)
        return handle


class Loopback:
    """Owns the processes, the delivery deque, the clock and the timers."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.now = 0.0
        self.delivered = 0
        #: First message seen of each type — the codec rungs encode these.
        self.samples: dict[type, Any] = {}
        self._processes: dict[ProcessId, Process] = {}
        self._queue: deque[tuple[ProcessId, ProcessId, Any]] = deque()
        #: Pending timers, insertion-ordered: handle -> (due, fn, args).
        self._timers: dict[_Timer, tuple[float, Callable[..., None], tuple]] = {}

    def add(self, process: Process) -> Process:
        self._processes[process.pid] = process
        process.bind(_LoopbackEnv(self, process.pid))
        return process

    def start(self) -> None:
        for process in list(self._processes.values()):
            process.on_start()

    def pump(self) -> None:
        """Deliver queued messages (and the ones they cause) until quiet."""
        queue = self._queue
        processes = self._processes
        samples = self.samples
        while queue:
            src, dst, msg = queue.popleft()
            if type(msg) not in samples:
                samples[type(msg)] = msg
            processes[dst].on_message(src, msg)
            self.delivered += 1

    def fire_next_timer(self) -> bool:
        """Advance the clock to the earliest pending timer and run it."""
        if not self._timers:
            return False
        handle = min(self._timers, key=lambda h: self._timers[h][0])
        due, fn, args = self._timers.pop(handle)
        self.now = max(self.now, due)
        fn(*args)
        return True

    def run_until(self, done: Callable[[], bool]) -> None:
        """Pump; whenever the deque runs dry before ``done()``, fire a timer."""
        while True:
            self.pump()
            if done():
                return
            if not self.fire_next_timer():
                raise RuntimeError("loopback went quiet before the run finished")
