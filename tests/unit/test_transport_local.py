"""Unit tests for the wall-clock runtime's process table, messaging and
timers, on the one real runtime: ``TcpRuntime`` over loopback."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import TransportError
from repro.sim.process import Process
from repro.transport.tcp import TcpRuntime


class Recorder(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.inbox = []
        self.started = threading.Event()

    def on_start(self):
        self.started.set()

    def on_message(self, src, msg):
        self.inbox.append((src, msg))


class Echo(Process):
    def on_message(self, src, msg):
        self.send(src, ("echo", msg))


def run_pair():
    runtime = TcpRuntime()
    a, b = Recorder("a"), Echo("b")
    runtime.add(a)
    runtime.add(b)
    runtime.start()
    return runtime, a, b


class TestLifecycle:
    def test_on_start_called(self):
        runtime, a, _b = run_pair()
        try:
            assert a.started.wait(timeout=5.0)
        finally:
            runtime.shutdown()

    def test_add_after_start_rejected(self):
        runtime, _a, _b = run_pair()
        try:
            with pytest.raises(TransportError, match="before start"):
                runtime.add(Recorder("late"))
        finally:
            runtime.shutdown()

    def test_duplicate_pid_rejected(self):
        runtime = TcpRuntime()
        runtime.add(Recorder("a"))
        with pytest.raises(TransportError, match="duplicate"):
            runtime.add(Recorder("a"))
        runtime.shutdown()

    def test_double_start_rejected(self):
        runtime = TcpRuntime()
        runtime.add(Recorder("a"))
        runtime.start()
        try:
            with pytest.raises(TransportError, match="already started"):
                runtime.start()
        finally:
            runtime.shutdown()


class TestMessaging:
    def test_round_trip(self):
        runtime, a, _b = run_pair()
        try:
            a.send("b", "ping")
            assert runtime.run_until(lambda: a.inbox, timeout=5.0)
            assert a.inbox == [("b", ("echo", "ping"))]
        finally:
            runtime.shutdown()

    def test_send_to_unknown_raises(self):
        runtime, a, _b = run_pair()
        try:
            with pytest.raises(TransportError, match="ghost"):
                a.send("ghost", "x")
        finally:
            runtime.shutdown()

    def test_crashed_process_receives_nothing(self):
        runtime, a, b = run_pair()
        try:
            b.alive = False
            a.send("b", "ping")
            time.sleep(0.05)
            assert a.inbox == []
        finally:
            runtime.shutdown()


class TestTimers:
    def test_timer_fires(self):
        runtime = TcpRuntime()
        a = Recorder("a")
        runtime.add(a)
        runtime.start()
        fired = threading.Event()
        try:
            assert a.started.wait(5.0)
            a.set_timer(0.01, fired.set)
            assert runtime.run_until(fired.is_set, timeout=5.0)
        finally:
            runtime.shutdown()

    def test_timer_cancel(self):
        runtime = TcpRuntime()
        a = Recorder("a")
        runtime.add(a)
        runtime.start()
        fired = []
        try:
            assert a.started.wait(5.0)
            handle = a.set_timer(0.02, fired.append, 1)
            handle.cancel()
            assert not handle.active
            time.sleep(0.08)
            assert fired == []
        finally:
            runtime.shutdown()

    def test_now_is_monotonic(self):
        runtime = TcpRuntime()
        first = runtime.now
        time.sleep(0.01)
        assert runtime.now > first
        runtime.shutdown()
