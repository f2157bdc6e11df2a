"""What the two wall-clock runtimes share: a process table, the per-process
:class:`~repro.sim.process.Env`, the wall clock and polling from the
caller's thread.

A runtime built on :class:`WallClockRuntime` supplies ``start``,
``shutdown``, ``_send(src, dsts, msg)`` — one call per send or broadcast —
and ``_set_timer(pid, delay, fn, args)``.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterable
from typing import Any

from repro.errors import TransportError
from repro.sim.process import Env, Process, TimerHandle
from repro.types import ProcessId


class RuntimeEnv(Env):
    """A process's view of its runtime: every call names the process."""

    __slots__ = ("_runtime", "_pid", "_rng")

    def __init__(self, runtime: "WallClockRuntime", pid: ProcessId) -> None:
        self._runtime = runtime
        self._pid = pid
        self._rng = random.Random(f"{runtime.seed}/proc/{pid}")

    @property
    def pid(self) -> ProcessId:
        return self._pid

    @property
    def now(self) -> float:
        return self._runtime.now

    @property
    def rng(self) -> random.Random:
        return self._rng

    def send(self, dst: ProcessId, msg: Any) -> None:
        self._runtime._send(self._pid, (dst,), msg)

    def broadcast(self, dsts: Iterable[ProcessId], msg: Any) -> None:
        self._runtime._send(self._pid, dsts, msg)

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        return self._runtime._set_timer(self._pid, delay, fn, args)


class WallClockRuntime:
    """Processes added before ``start()``, on a clock that starts with the
    runtime object."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._t0 = time.monotonic()
        self._processes: dict[ProcessId, Process] = {}
        self._started = False

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def add(self, process: Process) -> Process:
        if self._started:
            raise TransportError("add processes before start()")
        if process.pid in self._processes:
            raise TransportError(f"duplicate process id {process.pid!r}")
        self._processes[process.pid] = process
        process.bind(RuntimeEnv(self, process.pid))
        return process

    def run_until(self, predicate: Callable[[], bool], timeout: float = 30.0) -> bool:
        """Poll ``predicate`` from the caller's thread until it holds."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.002)
        return predicate()
