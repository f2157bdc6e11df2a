"""The same protocol objects running on the real (non-simulated) runtime:
localhost TCP."""

from __future__ import annotations

import gc
import socket
import sys
import threading
import time
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.chaos.invariants import check_cluster

from repro.client.client import Client
from repro.client.workload import paper_txn_steps, single_kind_steps
from repro.core.config import ReplicaConfig
from repro.core.messages import StartSignal
from repro.core.replica import Replica
from repro.election.static import StaticElector
from repro.errors import TransportError
from repro.services.kvstore import KVStoreService
from repro.services.noop import NoopService
from repro.sim.process import Process
from repro.transport import codec, tcp
from repro.transport.codec import FrameDecoder, encode_frame
from repro.transport.tcp import TcpRuntime
from repro.types import ReplyStatus, RequestKind
from tests.unit.test_wire_plans import DAMAGED
from tests.unit.test_wire_size import sized_classes

PEERS = ("r0", "r1", "r2")
#: The damaged packed frames also sent to a listening process.
DAMAGED_OVER_TCP = ("unknown-tag", "short-fields", "extra-fields", "bad-enum-ordinal")


def build_processes(steps, service_factory=NoopService, timeout=0.5, wait_for_start=False):
    config = ReplicaConfig(peers=PEERS, accept_retry=0.2, prepare_retry=0.1)
    replicas = [
        Replica(pid, config, service_factory, StaticElector("r0")) for pid in PEERS
    ]
    client = Client(
        "c0", replicas=PEERS, steps=steps, timeout=timeout, wait_for_start=wait_for_start
    )
    return replicas, client


def run_steps(steps, service_factory=NoopService):
    replicas, client = build_processes(steps, service_factory)
    runtime = TcpRuntime()
    for replica in replicas:
        runtime.add(replica)
    runtime.add(client)
    runtime.start()
    try:
        assert runtime.run_until(lambda: client.done, timeout=30.0)
    finally:
        runtime.shutdown()
    return runtime, replicas, client


class TestLocalRuntime:
    """A whole deployment on the wall clock, every process in this one
    test process: writes, convergence read by the invariant layer, and
    transactions."""

    def test_writes_complete_on_wall_clock(self):
        _runtime, _replicas, client = run_steps(single_kind_steps(RequestKind.WRITE, 10))
        assert client.completed_requests == 10
        assert all(r.status is ReplyStatus.OK for r in client.request_records())

    def test_replicas_converge(self):
        steps = single_kind_steps(RequestKind.WRITE, 10, op=lambda i: ("put", i, i))
        _runtime, replicas, client = run_steps(steps, service_factory=KVStoreService)
        time.sleep(0.1)  # let Chosen broadcasts land
        prints = {r.service.state_fingerprint() for r in replicas}
        assert len(prints) == 1
        # The invariant layer reads a bare-runtime deployment (standalone
        # Replicas, no Cluster) like a simulated one: benchmarks/suite does.
        deployment = SimpleNamespace(
            replicas={r.pid: r for r in replicas}, clients=[client], config=replicas[0].config
        )
        assert check_cluster(deployment) == []

    def test_transactions(self):
        _runtime, _replicas, client = run_steps(paper_txn_steps("optimized", 3, 5))
        assert client.completed_steps == 5


def kv_writes(n):
    return single_kind_steps(RequestKind.WRITE, n, op=lambda i: ("put", i, i))


class Recorder(Process):
    """Keeps what it is sent; optionally sends a burst from ``on_start``."""

    def __init__(self, pid, burst=()):
        super().__init__(pid)
        self.got = []
        self.burst = burst

    def on_start(self):
        for dst, msg in self.burst:
            self.send(dst, msg)

    def on_message(self, src, msg):
        self.got.append((src, msg))


class Crashed(Recorder):
    """A crashed process that counts how often the runtime asks."""

    asked = 0

    @property
    def alive(self):
        self.asked += 1
        return False

    @alive.setter
    def alive(self, value):
        pass


@pytest.fixture
def started():
    """Start a ``TcpRuntime`` over the given processes; shut down at exit."""
    runtimes = []

    def start(*processes):
        runtime = TcpRuntime()
        runtimes.append(runtime)
        for process in processes:
            runtime.add(process)
        return runtime.start()

    yield start
    for runtime in runtimes:
        runtime.shutdown()


def connect_to(runtime, pid):
    sock = socket.create_connection((runtime.host, runtime._ports[pid]), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class TestTcpRuntime:
    def test_writes_over_real_sockets(self):
        runtime, _replicas, client = run_steps(
            single_kind_steps(RequestKind.WRITE, 10)
        )
        assert client.completed_requests == 10
        assert runtime.messages_sent > 0 and runtime.bytes_sent > 0

    def test_xpaxos_reads_over_real_sockets(self):
        _runtime, _replicas, client = run_steps(
            single_kind_steps(RequestKind.READ, 10)
        )
        assert client.completed_requests == 10

    def test_kvstore_replication_over_tcp(self):
        steps = single_kind_steps(RequestKind.WRITE, 8, op=lambda i: ("put", i, i))
        _runtime, replicas, _client = run_steps(steps, service_factory=KVStoreService)
        time.sleep(0.2)
        prints = {r.service.state_fingerprint() for r in replicas}
        assert len(prints) == 1

    def test_transactions_over_tcp(self):
        _runtime, _replicas, client = run_steps(paper_txn_steps("optimized", 3, 3))
        assert client.completed_steps == 3

    # The data path pinned by counts (frames encoded, loop hand-offs) and by
    # what arrives — never by the wall clock.
    REQUESTS = 50
    #: Frames outside the steady state: the leader's prepare round at
    #: start-up and whatever is in flight when the client finishes.
    HANDFUL = 12

    def run_writes(self, started, before_start_signal=lambda runtime: None):
        """A 50-write closed-loop run begun by a ``StartSignal`` that the
        test's own thread sends: the one send made off the loop thread."""
        replicas, client = build_processes(
            kv_writes(self.REQUESTS), KVStoreService, wait_for_start=True
        )
        runtime = started(*replicas, client)
        before_start_signal(runtime)
        replicas[0].send("c0", StartSignal())
        assert runtime.run_until(lambda: client.done, timeout=30.0)
        runtime.shutdown()
        assert client.completed_requests == self.REQUESTS
        return runtime

    def test_a_broadcast_is_framed_once(self, started, monkeypatch):
        frames = []
        writes = Counter()
        real_write = TcpRuntime._write

        def counting_encode(message):
            frames.append(encode_frame(message))
            return frames[-1]

        def counting_write(self, src, dst, frame):
            writes[id(frame)] += 1
            real_write(self, src, dst, frame)

        monkeypatch.setattr(tcp, "encode_frame", counting_encode)
        monkeypatch.setattr(TcpRuntime, "_write", counting_write)
        runtime = self.run_writes(started)
        # Per write: the request (to 3), AcceptBatch and ChosenBatch (to 2
        # each), two AcceptedBatch and the Reply: 6 frames, 10 messages.
        assert 0 <= len(frames) - 6 * self.REQUESTS <= self.HANDFUL
        assert 0 <= runtime.messages_sent - 10 * self.REQUESTS <= 2 * self.HANDFUL
        assert runtime.messages_sent == sum(writes.values())
        assert runtime.bytes_sent == sum(len(f) * writes[id(f)] for f in frames)

    def test_a_frame_is_one_pack_and_one_unpack(self, started, monkeypatch):
        """The mechanism, not the clock: a message crosses the wire through
        its compiled plan, called once on each side, and through nothing
        per nested object."""
        calls = Counter()

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return counted

        def counting_feed(self, data, real=FrameDecoder.feed):
            for message in real(self, data):
                calls["decoded"] += 1
                yield message

        registered = [cls for cls, make in sized_classes().items() if codec.pack(make())]
        assert len(registered) == 20
        for cls in registered:
            for hook in ("__getstate__", "__setstate__", "__reduce_ex__"):
                monkeypatch.setattr(cls, hook, counting(hook, getattr(cls, hook)))
        monkeypatch.setattr(codec, "pack", counting("pack", codec.pack))
        monkeypatch.setattr(codec, "unpack", counting("unpack", codec.unpack))
        monkeypatch.setattr(tcp, "encode_frame", counting("encoded", encode_frame))
        monkeypatch.setattr(FrameDecoder, "feed", counting_feed)
        self.run_writes(started)
        assert calls["encoded"] >= 6 * self.REQUESTS
        assert calls["pack"] == calls["encoded"]
        assert calls["decoded"] >= 10 * self.REQUESTS
        assert calls["unpack"] == calls["decoded"]
        assert calls["__getstate__"] == calls["__setstate__"] == calls["__reduce_ex__"] == 0

    def test_loop_thread_sends_do_not_hop_through_the_loop(self, started):
        hops = []

        def count_hops(runtime):
            real = runtime._call_soon

            def counting(callback, *args):
                hops.append(callback)
                return real(callback, *args)

            runtime._call_soon = counting

        self.run_writes(started, before_start_signal=count_hops)
        # The StartSignal from this thread, not 10 a request.
        assert len(hops) <= 4

    def test_send_from_another_thread_is_delivered(self, started):
        a, b = Recorder("a"), Recorder("b")
        runtime = started(a, b)
        for i in range(20):
            a.send("b", i)
        assert runtime.run_until(lambda: len(b.got) == 20, timeout=10.0)
        assert b.got == [("a", i) for i in range(20)]

    def test_sends_from_many_threads_are_each_delivered_once_in_order(self, started):
        """More sending threads than cores, switching every microsecond:
        the hand-off to the loop loses, repeats and reorders nothing, and
        the counters, written by the loop thread alone, lose no update."""
        a, b = Recorder("a"), Recorder("b")
        runtime = started(a, b)

        def burst(thread):
            for i in range(200):
                a.send("b", (thread, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=burst, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert runtime.run_until(lambda: len(b.got) >= 800, timeout=20.0)
        for t in range(4):
            assert [i for _src, (thread, i) in b.got if thread == t] == list(range(200))
        assert runtime.messages_sent == len(b.got) == 800

    def test_frames_split_and_joined_by_segment_boundaries(self, started):
        b = Recorder("b")
        runtime = started(b)
        with connect_to(runtime, "b") as sock:
            for byte in encode_frame(("x", "split")):
                sock.sendall(bytes([byte]))
            assert runtime.run_until(lambda: b.got, timeout=10.0)
            sock.sendall(encode_frame(("x", 1)) + encode_frame(("x", 2)))
            assert runtime.run_until(lambda: len(b.got) >= 3, timeout=10.0)
        assert b.got == [("x", "split"), ("x", 1), ("x", 2)]

    def test_fifo_across_the_connect(self, started):
        """The first 50 are sent in one loop callback, so all of them are
        buffered behind a connect that cannot have finished."""
        a, b = Recorder("a", burst=[("b", i) for i in range(50)]), Recorder("b")
        runtime = started(a, b)
        for i in range(50, 200):
            a.send("b", i)
        assert runtime.run_until(lambda: len(b.got) >= 200, timeout=10.0)
        assert b.got == [("a", i) for i in range(200)]

    def test_crashed_receiver_gets_nothing(self, started, capfd):
        a, b = Recorder("a"), Crashed("b")
        runtime = started(a, b)
        for i in range(10):
            a.send("b", i)
        assert runtime.run_until(lambda: b.asked >= 10, timeout=10.0)
        runtime.shutdown()
        assert b.got == []
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "payload",
        [
            b"\xff\xff\xff\xff",
            b"\x00\x00\x00\x05hello",
            encode_frame(42),
            # Two-element iterables that unpack like a pair and are none.
            encode_frame("ab"),
            encode_frame([1, 2]),
            encode_frame({"x": 1, "y": 2}),
            encode_frame((1, StartSignal())),
            *(DAMAGED[name] for name in DAMAGED_OVER_TCP),
        ],
        ids=[
            "oversized-length", "not-a-pickle", "not-a-pair",
            "a-str", "a-list", "a-dict", "src-not-a-str",
            *DAMAGED_OVER_TCP,
        ],
    )
    def test_bad_frame_closes_that_connection_only(self, started, capfd, payload):
        replicas, client = build_processes(kv_writes(5), KVStoreService, wait_for_start=True)
        runtime = started(*replicas, client)
        with connect_to(runtime, "r1") as sock:
            sock.sendall(payload)
            assert sock.recv(1) == b""
        assert runtime.bad_frames == 1
        replicas[0].send("c0", StartSignal())
        assert runtime.run_until(lambda: client.done, timeout=30.0)
        assert client.completed_requests == 5
        runtime.shutdown()
        assert runtime.bad_frames == 1
        err = capfd.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "r1" in err

    def test_unknown_destination_fails_before_anything_is_written(self, started):
        a, b = Recorder("a"), Recorder("b")
        runtime = started(a, b)
        with pytest.raises(TransportError, match="nobody"):
            a.broadcast(["b", "nobody"], 1)
        assert runtime.messages_sent == runtime.bytes_sent == 0
        a.send("b", 2)
        assert runtime.run_until(lambda: b.got, timeout=10.0)
        assert b.got == [("a", 2)]

    def test_a_second_start_is_refused(self, started):
        starts = Counter()

        class Counting(Recorder):
            def on_start(self):
                starts[self.pid] += 1

        runtime = started(Counting("a"), Counting("b"))
        with pytest.raises(TransportError, match="already started"):
            runtime.start()
        runtime.shutdown()
        assert starts == {"a": 1, "b": 1}
        assert [t for t in threading.enumerate() if t.name == "repro-tcp-runtime"] == []

    def test_sends_and_timers_after_shutdown_have_a_defined_outcome(self, started):
        a, b = Recorder("a"), Recorder("b")
        runtime = started(a, b)
        a.send("b", 1)
        assert runtime.run_until(lambda: b.got, timeout=10.0)
        runtime.shutdown()
        sent = runtime.messages_sent
        a.send("b", 2)  # dropped, like a frame written behind shutdown()
        a.broadcast(["a", "b"], 3)
        assert runtime.messages_sent == sent and b.got == [("a", 1)]
        with pytest.raises(TransportError, match="runtime stopped"):
            a.set_timer(0.01, a.send, "b", 4)
        idle = TcpRuntime().add(Recorder("c"))
        with pytest.raises(TransportError, match="runtime not started"):
            idle.set_timer(0.01, idle.send, "c", 5)

    def test_a_tcp_run_leaves_no_timer_cycles(self, started):
        """No ``QuorumRound``, ``_WriteItem`` or timer handle of a TCP run
        waits for the cyclic collector: the TCP counterpart of opcount's
        "cyclic garbage/request 0". The rule that keeps it so: a cancelled
        timer lets go of its callback at once, not at its deadline, so no
        handle is left holding (a closure over) itself or its owner."""
        watched = {"QuorumRound", "_WriteItem", "_TcpTimer"}
        gc.collect()
        gc.disable()
        try:
            replicas, client = build_processes(kv_writes(300), KVStoreService)
            runtime = started(*replicas, client)
            assert runtime.run_until(lambda: client.done, timeout=30.0)
            # Past the retry and client deadlines: the loop has popped every
            # timer that a closed round or an answered request cancelled.
            time.sleep(0.6)
            owner = Recorder("x")
            handle = client.set_timer(60.0, owner.on_start)
            released = weakref.ref(owner)
            del owner
            handle.cancel()
            assert released() is None and not handle.active
            runtime.shutdown()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert client.completed_requests == 300
        assert {name: cyclic[name] for name in watched if cyclic[name]} == {}

    def test_start_run_shutdown_cycles_leave_nothing_behind(self, capfd):
        threads = threading.active_count()
        for _ in range(20):
            run_steps(kv_writes(30), KVStoreService)
            assert threading.active_count() == threads
        assert capfd.readouterr().err == ""
