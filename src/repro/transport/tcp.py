"""Real-TCP runtime on localhost (asyncio), as in the paper's prototype.

"The communication between service replicas, and between clients and
service replicas, uses TCP sockets." (§4.) This runtime gives every
process a listening socket on 127.0.0.1; messages are pickled,
length-prefixed (:mod:`repro.transport.codec`) and sent over lazily opened
connections. Handlers run on the event-loop thread, so each process's
handlers are serialized, matching the simulator's execution model.

This backend exists to prove the protocol stack is transport-agnostic and
to exercise real socket behaviour (connection setup, framing across
segment boundaries) in the integration tests — throughput *measurements*
still come from the simulator, where time is controlled.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from collections.abc import Callable
from typing import Any

from repro.errors import TransportError
from repro.sim.process import Env, Process, TimerHandle
from repro.transport.codec import FrameDecoder, encode_frame
from repro.types import ProcessId


class _TcpTimer(TimerHandle):
    __slots__ = ("_handle",)

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()

    @property
    def active(self) -> bool:
        return not self._handle.cancelled()


class _TcpEnv(Env):
    __slots__ = ("_runtime", "_pid", "_rng")

    def __init__(self, runtime: "TcpRuntime", pid: ProcessId) -> None:
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
        self._runtime._send(self._pid, dst, msg)

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        return self._runtime._set_timer(self._pid, delay, fn, args)


class TcpRuntime:
    """Runs processes over real localhost TCP inside one asyncio loop.

    Usage::

        runtime = TcpRuntime()
        runtime.add(replica); runtime.add(client)
        runtime.start()                       # binds sockets, starts loop thread
        runtime.run_until(lambda: client.done)
        runtime.shutdown()
    """

    def __init__(self, seed: int = 0, host: str = "127.0.0.1") -> None:
        self.seed = seed
        self.host = host
        self._t0 = time.monotonic()
        self._processes: dict[ProcessId, Process] = {}
        self._ports: dict[ProcessId, int] = {}
        self._servers: dict[ProcessId, asyncio.AbstractServer] = {}
        #: per (src, dst): a connected StreamWriter, or a list of frames
        #: buffered while the connection attempt is in flight.
        self._out: dict[tuple[ProcessId, ProcessId], asyncio.StreamWriter | list[bytes]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self.bytes_sent = 0
        self.messages_sent = 0

    # -------------------------------------------------------------- lifecycle
    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def add(self, process: Process) -> Process:
        if self._started.is_set():
            raise TransportError("add processes before start()")
        if process.pid in self._processes:
            raise TransportError(f"duplicate process id {process.pid!r}")
        self._processes[process.pid] = process
        process.bind(_TcpEnv(self, process.pid))
        return process

    def start(self, timeout: float = 10.0) -> "TcpRuntime":
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-tcp-runtime", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=timeout):
            raise TransportError("TCP runtime failed to start in time")
        return self

    def _thread_main(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        for pid in self._processes:
            server = await asyncio.start_server(
                lambda r, w, pid=pid: self._serve(pid, r, w), self.host, 0
            )
            self._servers[pid] = server
            self._ports[pid] = server.sockets[0].getsockname()[1]
        for process in self._processes.values():
            process.on_start()
        self._started.set()
        await self._stop_event.wait()
        for server in self._servers.values():
            server.close()
        for entry in self._out.values():
            if isinstance(entry, asyncio.StreamWriter):
                entry.close()

    def shutdown(self, timeout: float = 5.0) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def run_until(self, predicate: Callable[[], bool], timeout: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.002)
        return predicate()

    # ---------------------------------------------------------------- serving
    async def _serve(
        self, pid: ProcessId, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Handle one inbound connection to ``pid``'s listening socket."""
        process = self._processes[pid]
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for src, msg in decoder.feed(data):
                    if not process.alive:
                        continue
                    try:
                        process.on_message(src, msg)
                    except Exception:  # a poisoned message must not kill the link
                        import traceback

                        traceback.print_exc()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return
        except asyncio.CancelledError:
            return  # orderly shutdown
        finally:
            writer.close()

    # ---------------------------------------------------------------- sending
    def _send(self, src: ProcessId, dst: ProcessId, msg: Any) -> None:
        loop = self._loop
        if loop is None:
            raise TransportError("runtime not started")
        sender = self._processes.get(src)
        if sender is None or not sender.alive:
            return
        if dst not in self._processes:
            raise TransportError(f"{src} sent to unknown process {dst!r}")
        # Envelope carries the source pid; frame it once, ship it on the loop.
        frame = encode_frame((src, msg))
        self.messages_sent += 1
        self.bytes_sent += len(frame)
        loop.call_soon_threadsafe(self._write, src, dst, frame)

    def _write(self, src: ProcessId, dst: ProcessId, frame: bytes) -> None:
        """Runs on the loop thread. One connection per (src, dst); frames
        sent while the connect is in flight are buffered in order so TCP's
        FIFO guarantee is preserved end to end."""
        assert self._loop is not None
        key = (src, dst)
        entry = self._out.get(key)
        if isinstance(entry, asyncio.StreamWriter):
            if not entry.is_closing():
                entry.write(frame)
                return
            entry = None
            del self._out[key]
        if isinstance(entry, list):
            entry.append(frame)
            return
        self._out[key] = [frame]
        self._loop.create_task(self._connect(key, dst))

    async def _connect(self, key: tuple[ProcessId, ProcessId], dst: ProcessId) -> None:
        try:
            _reader, writer = await asyncio.open_connection(self.host, self._ports[dst])
        except OSError:
            # Receiver gone; drop the buffer — retransmissions cope.
            self._out.pop(key, None)
            return
        buffered = self._out[key]
        assert isinstance(buffered, list)
        self._out[key] = writer
        for frame in buffered:
            writer.write(frame)

    # ----------------------------------------------------------------- timers
    def _set_timer(
        self, pid: ProcessId, delay: float, fn: Callable[..., None], args: tuple
    ) -> TimerHandle:
        loop = self._loop
        if loop is None:
            raise TransportError("runtime not started")
        process = self._processes[pid]
        holder: list[_TcpTimer] = []

        def fire() -> None:
            if process.alive:
                fn(*args)

        if threading.current_thread() is self._thread:
            handle = loop.call_later(delay, fire)
            return _TcpTimer(handle)
        # Called from another thread (e.g. run_until polling): hop onto loop.
        done = threading.Event()

        def schedule() -> None:
            holder.append(_TcpTimer(loop.call_later(delay, fire)))
            done.set()

        loop.call_soon_threadsafe(schedule)
        done.wait(timeout=5.0)
        if not holder:
            raise TransportError("failed to schedule timer on the loop")
        return holder[0]
