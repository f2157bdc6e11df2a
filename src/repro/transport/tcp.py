"""Real-TCP runtime on localhost (one ``selectors`` loop), as in the paper's
prototype.

"The communication between service replicas, and between clients and
service replicas, uses TCP sockets." (§4.) This runtime gives every
process a listening socket on 127.0.0.1; messages are packed by their
compiled field plans into length-prefixed frames
(:mod:`repro.transport.codec`) and sent over lazily opened connections,
one per ``(src, dst)``. Both ends of every connection are non-blocking and
set ``TCP_NODELAY``: without it delayed ACKs stall every round.

The loop is one thread that owns a ``selectors.DefaultSelector``, a heap of
wall-clock timers and a queue of calls handed over by other threads (woken
through a ``socketpair``). Each turn waits for the sockets until the
earliest timer is due, runs the ready socket callbacks, then the due timers,
then the handed-over calls.

* **Reads.** An accepted connection (:meth:`TcpRuntime._accept`) does
  ``recv_into`` its own 16 KiB buffer and feeds the bytes to its
  :class:`FrameDecoder`, which calls ``process.on_message(src, msg)``
  directly: a segment costs one callback and no allocation.
* **Writes made where the sender runs.** A send from the loop thread goes
  straight to the socket (:class:`_Outbound`); what a partial ``send``
  leaves over, and every frame written while the connect is in flight, is
  kept in order in one pending ``bytearray`` flushed when the socket turns
  writable. Only a send from another thread is handed over to the loop.
* **One frame per broadcast.** ``(src, msg)`` is framed once and the same
  bytes are written to every destination; ``messages_sent`` and
  ``bytes_sent`` still count per destination.
* **Timers drop their callback.** A timer that fires or is cancelled lets
  go of its function and arguments at once, as the simulator's
  ``EventHandle`` does: a cancelled retry timer does not hold its
  ``QuorumRound`` until the deadline, and no handle joins a cycle.

Threading rule: handlers, timers and socket writes all run on the one loop
thread, so each process's handlers are serialized, matching the
simulator's execution model. The call queue is reached only from outside
that thread — a test or embedder poking a process; :meth:`TcpRuntime.shutdown`
only sets the stop flag and wakes the loop. Which side a caller is on is
read from ``threading.get_ident()``, never from an option. After
``shutdown()`` a send is dropped and ``set_timer`` from outside the loop
raises :class:`TransportError`.

An inbound frame that cannot be decoded (oversized length, unpicklable
body, an unknown tag or damaged fields in a packed message, anything but a
2-tuple led by a ``str`` sender) closes that one connection, counts in
``bad_frames`` and prints one line — before any handler sees it; a handler
that raises prints its traceback and the link stays up.

``selectors`` and ``socket`` are imported by :meth:`TcpRuntime.start`, not
by this module: a simulated run that imports :class:`TcpRuntime` but never
starts one loads neither. asyncio is not used at all: its import alone
loads ``ssl`` and maps OpenSSL, more memory than this whole runtime takes.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
import sys
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from repro.errors import TransportError
from repro.sim.process import Env, Process, TimerHandle
from repro.transport.codec import FrameDecoder, encode_frame
from repro.types import ProcessId

if TYPE_CHECKING:
    import selectors
    import socket


#: Size of the buffer each inbound connection receives into. Owning one
#: keeps allocation off the read path: a plain ``recv(256 KiB)`` returns a
#: fresh block of that size per segment, which the C library maps and
#: unmaps each time — about 13 us a call against 1.4 us (docs/performance.md,
#: "The real-TCP data path").
_RECV_BUFFER = 16384
#: ``selectors.EVENT_READ`` / ``EVENT_WRITE``, named here so that this
#: module does not import ``selectors``.
_READ, _WRITE = 1, 2


def _nodelay(sock: socket.socket) -> socket.socket:
    """Make ``sock`` non-blocking, with Nagle's algorithm off."""
    import socket

    sock.setblocking(False)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _TcpEnv(Env):
    """A process's view of its runtime: every call names the process."""

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


class _TcpTimer(TimerHandle):
    """``(fn, args)`` is one attribute, so a cancel from another thread
    cannot split it under a firing loop."""

    __slots__ = ("_process", "_call")

    def __init__(self, process: Process, fn: Callable[..., None], args: tuple) -> None:
        self._process = process
        self._call: tuple[Callable[..., None], tuple] | None = (fn, args)

    def cancel(self) -> None:
        self._call = None

    @property
    def active(self) -> bool:
        return self._call is not None

    def fire(self) -> None:
        call = self._call
        if call is not None:
            self._call = None
            if self._process.alive:
                call[0](*call[1])


class _Outbound:
    """The connection for one ``(src, dst)``. Frames written while the
    connect is in flight, or behind a partial ``send``, wait in ``_pending``
    in order, so TCP's FIFO guarantee holds end to end. The socket is
    registered for ``EVENT_WRITE`` exactly while it is connecting or has
    bytes pending."""

    __slots__ = ("_runtime", "_key", "sock", "_pending", "_connecting")

    def __init__(self, runtime: "TcpRuntime", key: tuple[ProcessId, ProcessId]) -> None:
        import socket

        self._runtime = runtime
        self._key = key
        self.sock = _nodelay(socket.socket())
        self._pending = bytearray()
        self._connecting = True
        runtime._selector.register(self.sock, _WRITE, self._flush)
        # EINPROGRESS, or a refusal: either way _flush learns the outcome.
        self.sock.connect_ex((runtime.host, runtime._ports[key[1]]))

    def close(self) -> None:
        """Drop the connection and what is pending on it (the receiver is
        gone; retransmissions cope). The next frame connects anew."""
        if self._connecting or self._pending:
            self._runtime._selector.unregister(self.sock)
        del self._runtime._out[self._key]
        self.sock.close()

    def write(self, frame: bytes) -> None:
        if self._connecting or self._pending:
            self._pending += frame
            return
        try:
            sent = self.sock.send(frame)
        except BlockingIOError:
            sent = 0
        except OSError:
            self.close()
            return
        if sent < len(frame):
            self._pending += frame[sent:]
            self._runtime._selector.register(self.sock, _WRITE, self._flush)

    def _flush(self) -> None:
        import socket

        if self._connecting:
            if self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
                self.close()
                return
            self._connecting = False
        try:
            del self._pending[: self.sock.send(self._pending)]
        except BlockingIOError:
            return
        except OSError:
            self.close()
            return
        if not self._pending:
            self._runtime._selector.unregister(self.sock)


class TcpRuntime:
    """Runs processes over real localhost TCP on one ``selectors`` loop.
    ``host`` is the IPv4 address, or a name resolving to one, that every
    process listens on. Processes are added before ``start()``; ``now`` is
    the wall clock since the runtime object was made.

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
        self._started = False
        self._ports: dict[ProcessId, int] = {}
        self._out: dict[tuple[ProcessId, ProcessId], _Outbound] = {}
        #: ``(deadline, seq, timer)``: tuple comparison never reaches the timer.
        self._timers: list[tuple[float, int, _TcpTimer]] = []
        self._seq = itertools.count()
        #: calls handed over by other threads, run in order by the loop.
        self._calls: deque[tuple[Callable[..., None], tuple]] = deque()
        self._loop_ident: int | None = None
        self._thread: threading.Thread | None = None
        #: set by the loop thread once every process's ``on_start`` ran.
        self._ready = threading.Event()
        self._stopping = False
        self.bytes_sent = 0
        self.messages_sent = 0
        #: inbound connections closed for a frame that could not be decoded.
        self.bad_frames = 0

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def add(self, process: Process) -> Process:
        if self._started:
            raise TransportError("add processes before start()")
        if process.pid in self._processes:
            raise TransportError(f"duplicate process id {process.pid!r}")
        self._processes[process.pid] = process
        process.bind(_TcpEnv(self, process.pid))
        return process

    def run_until(self, predicate: Callable[[], bool], timeout: float = 30.0) -> bool:
        """Poll ``predicate`` from the caller's thread until it holds."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.002)
        return predicate()

    # -------------------------------------------------------------- lifecycle
    def start(self, timeout: float = 10.0) -> "TcpRuntime":
        if self._started:
            raise TransportError("runtime already started")
        self._started = True
        import selectors
        import socket

        self._selector = selectors.DefaultSelector()
        wake, self._waker = socket.socketpair()
        self._waker.setblocking(False)
        self._selector.register(wake, _READ, functools.partial(wake.recv, 4096))
        for pid, process in self._processes.items():
            listener = socket.create_server((self.host, 0))
            listener.setblocking(False)
            self._ports[pid] = listener.getsockname()[1]
            accept = functools.partial(self._accept, listener, process)
            self._selector.register(listener, _READ, accept)
        self._thread = threading.Thread(target=self._run, name="repro-tcp-runtime", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise TransportError("TCP runtime failed to start in time")
        return self

    def _run(self) -> None:
        self._loop_ident = threading.get_ident()
        try:
            for process in self._processes.values():
                process.on_start()
            self._ready.set()
            while not self._stopping:
                try:
                    self._turn()
                except Exception:  # a raising timer or call must not stop the loop
                    traceback.print_exc()
        finally:  # every socket: listeners, inbound, outbound, the wake pair
            selected = [key.fileobj for key in self._selector.get_map().values()]
            for sock in (*selected, *(out.sock for out in self._out.values()), self._waker):
                sock.close()
            self._selector.close()
            # A stopped runtime holds no callbacks: processes and runtime
            # refer to each other, so this one may wait for the collector.
            self._timers.clear()
            self._calls.clear()

    def _turn(self) -> None:
        """One loop iteration. Whatever an exception cuts short stays in the
        heap, the queue or the selector for the next turn."""
        timers, calls = self._timers, self._calls
        # No wait with calls queued; else until the next deadline, if any.
        timeout = 0.0 if calls else (timers[0][0] - time.monotonic() if timers else None)
        for key, _events in self._selector.select(timeout):
            key.data()
        now = time.monotonic()
        while timers and timers[0][0] <= now:
            heapq.heappop(timers)[2].fire()
        while calls:
            fn, args = calls.popleft()
            fn(*args)

    def _accept(self, listener: socket.socket, process: Process) -> None:
        """A connection to ``process``'s listening socket: from now on it
        ``recv_into`` its own buffer and feeds its own decoder."""
        try:
            sock, _address = listener.accept()
        except OSError:
            return
        decoder, view = FrameDecoder(), memoryview(bytearray(_RECV_BUFFER))

        def read() -> None:
            try:
                nbytes = sock.recv_into(view)
            except BlockingIOError:
                return
            except OSError:
                nbytes = 0
            try:
                for pair in decoder.feed(view[:nbytes]):
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
                self.bad_frames += 1
                print(
                    f"repro-tcp: bad frame for {process.pid}, connection closed: {exc!r}",
                    file=sys.stderr,
                )
                nbytes = 0
            if not nbytes:  # closed by the peer, or by a bad frame
                self._selector.unregister(sock)
                sock.close()

        self._selector.register(_nodelay(sock), _READ, read)

    def _call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Hand ``fn(*args)`` over to the loop thread: the one cross-thread path."""
        self._calls.append((fn, args))
        self._wakeup()

    def _wakeup(self) -> None:
        try:
            self._waker.send(b"\0")
        except OSError:  # buffer full (the loop is awake) or closed by shutdown
            pass

    def shutdown(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        self._stopping = True
        self._wakeup()  # the loop then closes every socket and exits
        self._thread.join(timeout=timeout)

    # ---------------------------------------------------------------- sending
    def _send(self, src: ProcessId, dsts: Iterable[ProcessId], msg: Any) -> None:
        if not self._started:
            raise TransportError("runtime not started")
        sender = self._processes.get(src)
        if self._stopping or sender is None or not sender.alive:
            return
        dsts = tuple(dsts)
        for dst in dsts:  # all of them, before anything is written or counted
            if dst not in self._processes:
                raise TransportError(f"{src} sent to unknown process {dst!r}")
        # Envelope carries the source pid; framed once for every destination.
        frame = encode_frame((src, msg))
        on_loop = threading.get_ident() == self._loop_ident
        for dst in dsts:
            if on_loop:
                self._write(src, dst, frame)
            else:
                self._call_soon(self._write, src, dst, frame)

    def _write(self, src: ProcessId, dst: ProcessId, frame: bytes) -> None:
        """Runs on the loop thread, the one writer of the counters. Once a
        stop was requested frames are dropped: nothing connects behind
        ``shutdown()``."""
        self.messages_sent += 1
        self.bytes_sent += len(frame)
        if self._stopping:
            return
        key = (src, dst)
        out = self._out.get(key)
        if out is None:
            out = self._out[key] = _Outbound(self, key)
        out.write(frame)

    # ----------------------------------------------------------------- timers
    def _set_timer(
        self, pid: ProcessId, delay: float, fn: Callable[..., None], args: tuple
    ) -> TimerHandle:
        if not self._started:
            raise TransportError("runtime not started")
        timer = _TcpTimer(self._processes[pid], fn, args)
        entry = (time.monotonic() + delay, next(self._seq), timer)
        if threading.get_ident() == self._loop_ident:
            heapq.heappush(self._timers, entry)
        elif self._stopping:
            raise TransportError("runtime stopped")
        else:
            self._call_soon(heapq.heappush, self._timers, entry)
        return timer
