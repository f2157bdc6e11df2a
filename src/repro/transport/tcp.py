"""Real-TCP runtime on localhost (asyncio), as in the paper's prototype.

"The communication between service replicas, and between clients and
service replicas, uses TCP sockets." (§4.) This runtime gives every
process a listening socket on 127.0.0.1; messages are packed by their
compiled field plans into length-prefixed frames
(:mod:`repro.transport.codec`) and sent over lazily opened connections,
one per ``(src, dst)``.

The data path is three mechanisms:

* **Protocol callbacks.** Every accepted connection is an
  :class:`asyncio.BufferedProtocol` (:class:`_Inbound`): the socket is read
  into the connection's own buffer, and ``buffer_updated`` feeds the
  connection's :class:`FrameDecoder` and calls
  ``process.on_message(src, msg)`` directly. A segment costs one callback
  and no allocation — not a stream read, a future and a coroutine
  wake-up. Outbound connections are bare transports.
* **Writes made where the sender runs.** A send from the loop thread
  writes to the transport at once (the socket is tried straight away);
  only a send from another thread is handed over with
  ``call_soon_threadsafe``.
* **One frame per broadcast.** ``(src, msg)`` is framed once and the same
  bytes are written to every destination; ``messages_sent`` and
  ``bytes_sent`` still count per destination.

Threading rule: handlers, timers and socket writes all run on the one
event-loop thread, so each process's handlers are serialized, matching the
simulator's execution model. ``call_soon_threadsafe`` is reached only from
outside that thread — a test or embedder poking a process, and
:meth:`TcpRuntime.shutdown`. Which side a caller is on is read from
``threading.get_ident()``, never from an option.

An inbound frame that cannot be decoded (oversized length, unpicklable
body, an unknown tag or damaged fields in a packed message, anything but a
2-tuple led by a ``str`` sender) closes that one connection, counts in
``bad_frames`` and prints one line — before any handler sees it; a handler
that raises prints its traceback and the link stays up.

asyncio is imported by :meth:`TcpRuntime.start`, not by this module: a
simulated run that imports :class:`TcpRuntime` but never starts one does not
load the network stack (asyncio pulls in ``ssl`` and maps OpenSSL).
"""

from __future__ import annotations

import functools
import random
import sys
import threading
import time
import traceback
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from repro.errors import TransportError
from repro.sim.process import Env, Process, TimerHandle
from repro.transport.codec import FrameDecoder, encode_frame
from repro.types import ProcessId

if TYPE_CHECKING:
    import asyncio


#: Size of the buffer each inbound connection receives into. Owning one
#: keeps allocation off the read path: a plain ``asyncio.Protocol`` gets its
#: ``data_received`` bytes from ``recv(256 KiB)``, a fresh block of that size
#: per segment, which the C library maps and unmaps each time — about 13 us
#: a call on the dev box against 1.4 us (docs/performance.md).
_RECV_BUFFER = 16384


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
        self._runtime._send(self._pid, (dst,), msg)

    def broadcast(self, dsts: Iterable[ProcessId], msg: Any) -> None:
        self._runtime._send(self._pid, dsts, msg)

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        return self._runtime._set_timer(self._pid, delay, fn, args)


@functools.cache
def _inbound_protocol() -> type[asyncio.BufferedProtocol]:
    """The protocol class of an accepted connection, made once by the first
    ``start()``: asyncio reads into a connection's own buffer only for a
    real :class:`asyncio.BufferedProtocol` subclass."""
    import asyncio

    class _Inbound(asyncio.BufferedProtocol):
        """One accepted connection to ``process``'s listening socket."""

        __slots__ = ("_runtime", "_process", "_decoder", "_transport", "_view")

        def __init__(self, runtime: "TcpRuntime", process: Process) -> None:
            self._runtime = runtime
            self._process = process
            self._decoder = FrameDecoder()
            self._view = memoryview(bytearray(_RECV_BUFFER))

        def connection_made(self, transport: asyncio.BaseTransport) -> None:
            self._transport = transport
            self._runtime._inbound.add(transport)

        def connection_lost(self, exc: Exception | None) -> None:
            self._runtime._inbound.discard(self._transport)

        def get_buffer(self, sizehint: int) -> memoryview:
            return self._view

        def buffer_updated(self, nbytes: int) -> None:
            process = self._process
            try:
                for pair in self._decoder.feed(self._view[:nbytes]):
                    if type(pair) is not tuple or len(pair) != 2 or type(pair[0]) is not str:
                        raise ValueError(f"not a (src, msg) pair: {pair!r}")
                    if not process.alive:
                        continue
                    src, msg = pair
                    try:
                        process.on_message(src, msg)
                    except Exception:  # a poisoned message must not kill the link
                        traceback.print_exc()
            except Exception as exc:  # undecodable: unpickling may raise anything
                self._runtime.bad_frames += 1
                print(
                    f"repro-tcp: bad frame for {process.pid}, connection closed: {exc!r}",
                    file=sys.stderr,
                )
                self._transport.close()

    return _Inbound


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
        self._listeners: list[asyncio.AbstractServer] = []
        #: per (src, dst): a connected transport, or a list of frames
        #: buffered while the connection attempt is in flight.
        self._out: dict[tuple[ProcessId, ProcessId], asyncio.WriteTransport | list[bytes]] = {}
        self._inbound: set[asyncio.BaseTransport] = set()
        #: connect tasks in flight: the loop holds tasks weakly.
        self._connecting: set[asyncio.Task[None]] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_ident: int | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self.bytes_sent = 0
        self.messages_sent = 0
        #: inbound connections closed for a frame that could not be decoded.
        self.bad_frames = 0

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
        if self._thread is not None:
            raise TransportError("runtime already started")
        import asyncio

        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name="repro-tcp-runtime", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=timeout):
            raise TransportError("TCP runtime failed to start in time")
        return self

    async def _main(self) -> None:
        import asyncio

        inbound = _inbound_protocol()
        self._loop = loop = asyncio.get_running_loop()
        self._loop_ident = threading.get_ident()
        self._stop_event = asyncio.Event()
        for pid, process in self._processes.items():
            listener = await loop.create_server(
                lambda process=process: inbound(self, process), self.host, 0
            )
            self._listeners.append(listener)
            self._ports[pid] = listener.sockets[0].getsockname()[1]
        for process in self._processes.values():
            process.on_start()
        self._started.set()
        await self._stop_event.wait()
        for task in self._connecting:
            task.cancel()
        for listener in self._listeners:
            listener.close()
        for entry in (*self._inbound, *self._out.values()):
            if not isinstance(entry, list):
                entry.close()
        await asyncio.sleep(0)  # the closes above finish on the next iteration

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

    # ---------------------------------------------------------------- sending
    def _send(self, src: ProcessId, dsts: Iterable[ProcessId], msg: Any) -> None:
        loop = self._loop
        if loop is None:
            raise TransportError("runtime not started")
        sender = self._processes.get(src)
        if sender is None or not sender.alive:
            return
        dsts = tuple(dsts)
        for dst in dsts:  # all of them, before anything is written or counted
            if dst not in self._processes:
                raise TransportError(f"{src} sent to unknown process {dst!r}")
        # Envelope carries the source pid; framed once for every destination.
        frame = encode_frame((src, msg))
        on_loop = threading.get_ident() == self._loop_ident
        for dst in dsts:
            self.messages_sent += 1
            self.bytes_sent += len(frame)
            if on_loop:
                self._write(src, dst, frame)
            else:
                loop.call_soon_threadsafe(self._write, src, dst, frame)

    def _write(self, src: ProcessId, dst: ProcessId, frame: bytes) -> None:
        """Runs on the loop thread. One connection per (src, dst); frames
        sent while the connect is in flight are buffered in order so TCP's
        FIFO guarantee is preserved end to end. Once a stop was requested
        frames are dropped: nothing connects behind ``shutdown()``."""
        if self._stop_event.is_set():
            return
        key = (src, dst)
        entry = self._out.get(key)
        if isinstance(entry, list):
            entry.append(frame)
        elif entry is not None and not entry.is_closing():
            entry.write(frame)
        else:
            self._out[key] = [frame]
            task = self._loop.create_task(self._connect(key, dst))
            self._connecting.add(task)
            task.add_done_callback(self._connecting.discard)

    async def _connect(self, key: tuple[ProcessId, ProcessId], dst: ProcessId) -> None:
        import asyncio

        try:
            transport, _ = await asyncio.get_running_loop().create_connection(
                asyncio.Protocol, self.host, self._ports[dst]
            )
        except OSError:
            # Receiver gone; drop the buffer — retransmissions cope.
            self._out.pop(key, None)
            return
        buffered = self._out[key]
        assert isinstance(buffered, list)
        self._out[key] = transport
        for frame in buffered:
            transport.write(frame)

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

        if threading.get_ident() == self._loop_ident:
            return _TcpTimer(loop.call_later(delay, fire))
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
