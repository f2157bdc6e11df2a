"""Unit tests for the simulation world: delivery, timers, crash/recover."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import SimulationError
from repro.obs.handle import Obs
from repro.obs.registry import MetricsRegistry
from repro.sim.cpu import CpuProfile
from repro.sim.kernel import Kernel
from repro.sim.process import Envelope, Process
from repro.sim.world import World, ZeroLatencyNetwork
from repro.transport.codec import wire_size


class Recorder(Process):
    """Remembers everything it receives, with timestamps."""

    def __init__(self, pid):
        super().__init__(pid)
        self.inbox: list[tuple[float, str, object]] = []
        self.started = 0
        self.crashed = 0
        self.recovered = 0

    def on_start(self):
        self.started += 1

    def on_message(self, src, msg):
        self.inbox.append((self.now, src, msg))

    def on_crash(self):
        self.crashed += 1

    def on_recover(self):
        self.recovered += 1


@dataclass(frozen=True)
class Wrapped(Envelope):
    """A substrate-level envelope: no repro.core involved."""

    msg: object


class FixedDelayNetwork:
    def __init__(self, delay):
        self.delay = delay

    def delays(self, src, dst, depart):
        return (self.delay,)


def make_world(network=None, seed=0):
    kernel = Kernel(seed=seed)
    return kernel, World(kernel, network)


class TestDelivery:
    def test_message_delivered(self):
        kernel, world = make_world()
        a, b = Recorder("a"), Recorder("b")
        world.add(a)
        world.add(b)
        world.start()
        a.send("b", "hello")
        kernel.run()
        assert [(src, msg) for _t, src, msg in b.inbox] == [("a", "hello")]

    def test_latency_applied(self):
        kernel, world = make_world(FixedDelayNetwork(0.25))
        a, b = world.add(Recorder("a")), world.add(Recorder("b"))
        world.start()
        a.send("b", "x")
        kernel.run()
        assert b.inbox[0][0] == pytest.approx(0.25)

    def test_send_to_unknown_raises(self):
        kernel, world = make_world()
        a = world.add(Recorder("a"))
        world.start()
        with pytest.raises(SimulationError):
            a.send("ghost", "x")

    def test_duplicate_pid_rejected(self):
        _kernel, world = make_world()
        world.add(Recorder("a"))
        with pytest.raises(SimulationError):
            world.add(Recorder("a"))

    def test_broadcast(self):
        kernel, world = make_world()
        a = world.add(Recorder("a"))
        b, c = world.add(Recorder("b")), world.add(Recorder("c"))
        world.start()
        a.broadcast(["b", "c"], "hi")
        kernel.run()
        assert len(b.inbox) == 1 and len(c.inbox) == 1

    def test_sender_cpu_serializes_departures(self):
        kernel, world = make_world(FixedDelayNetwork(0.0))
        a = world.add(Recorder("a"), cpu=CpuProfile(send_cost=0.010))
        b = world.add(Recorder("b"))
        world.start()
        a.send("b", 1)
        a.send("b", 2)
        kernel.run()
        times = [t for t, _s, _m in b.inbox]
        assert times[0] == pytest.approx(0.010)
        assert times[1] == pytest.approx(0.020)

    def test_receiver_cpu_queues_handling(self):
        kernel, world = make_world(FixedDelayNetwork(0.0))
        a = world.add(Recorder("a"))
        b = world.add(Recorder("b"), cpu=CpuProfile(recv_cost=0.010))
        world.start()
        a.send("b", 1)
        a.send("b", 2)
        kernel.run()
        times = [t for t, _s, _m in b.inbox]
        assert times == [pytest.approx(0.010), pytest.approx(0.020)]


class TestTimers:
    def test_timer_fires(self):
        kernel, world = make_world()
        a = world.add(Recorder("a"))
        world.start()
        seen = []
        a.set_timer(0.5, seen.append, "tick")
        kernel.run()
        assert seen == ["tick"]

    def test_timer_cancel(self):
        kernel, world = make_world()
        a = world.add(Recorder("a"))
        world.start()
        seen = []
        handle = a.set_timer(0.5, seen.append, "tick")
        handle.cancel()
        kernel.run()
        assert seen == []
        assert not handle.active

    def test_timer_dies_with_crash(self):
        kernel, world = make_world()
        a = world.add(Recorder("a"))
        world.start()
        seen = []
        a.set_timer(1.0, seen.append, "tick")
        kernel.schedule_at(0.5, world.crash, "a")
        kernel.run()
        assert seen == []

    def test_timer_from_before_crash_not_revived_by_recover(self):
        kernel, world = make_world()
        a = world.add(Recorder("a"))
        world.start()
        seen = []
        a.set_timer(1.0, seen.append, "tick")
        kernel.schedule_at(0.2, world.crash, "a")
        kernel.schedule_at(0.4, world.recover, "a")
        kernel.run()
        assert seen == []  # epoch changed; stale timer is dead


class TestCrashRecover:
    def test_crashed_process_drops_messages(self):
        kernel, world = make_world(FixedDelayNetwork(0.1))
        a, b = world.add(Recorder("a")), world.add(Recorder("b"))
        world.start()
        kernel.schedule_at(0.05, world.crash, "b")
        a.send("b", "lost")  # in flight when b crashes
        kernel.run()
        assert b.inbox == []
        assert b.crashed == 1

    def test_recovered_process_receives_again(self):
        kernel, world = make_world()
        a, b = world.add(Recorder("a")), world.add(Recorder("b"))
        world.start()
        world.crash("b")
        world.recover("b")
        a.send("b", "back")
        kernel.run()
        assert [m for _t, _s, m in b.inbox] == ["back"]
        assert b.recovered == 1

    def test_crash_idempotent(self):
        _kernel, world = make_world()
        b = world.add(Recorder("b"))
        world.start()
        world.crash("b")
        world.crash("b")
        assert b.crashed == 1

    def test_recover_idempotent(self):
        _kernel, world = make_world()
        b = world.add(Recorder("b"))
        world.start()
        world.crash("b")
        world.recover("b")
        world.recover("b")
        assert b.recovered == 1

    def test_crashed_process_cannot_send(self):
        kernel, world = make_world()
        a, b = world.add(Recorder("a")), world.add(Recorder("b"))
        world.start()
        world.crash("a")
        a.send("b", "nope")  # silently dropped: crashed processes take no steps
        kernel.run()
        assert b.inbox == []

    def test_alive_pids(self):
        _kernel, world = make_world()
        world.add(Recorder("a"))
        world.add(Recorder("b"))
        world.start()
        world.crash("a")
        assert world.alive_pids() == ["b"]


class TestTrace:
    """What the world records of each message: the registry's counters
    (a payload is read through the ``sent`` fixture)."""

    def test_trace_records_send_and_deliver(self):
        kernel = Kernel()
        metrics = MetricsRegistry()
        world = World(kernel, ZeroLatencyNetwork(), obs=Obs(metrics=metrics))
        a, b = world.add(Recorder("a")), world.add(Recorder("b"))
        world.start()
        a.send("b", "x")
        kernel.run()
        assert metrics.counters() == {
            "msg.send.str": 1, "proc.a.send.str": 1,
            "msg.deliver.str": 1, "proc.b.recv.str": 1,
        }

    def test_trace_records_drop_on_crash(self):
        kernel = Kernel()
        metrics = MetricsRegistry()
        world = World(kernel, FixedDelayNetwork(0.1), obs=Obs(metrics=metrics))
        a, b = world.add(Recorder("a")), world.add(Recorder("b"))
        world.start()
        a.send("b", "x")
        kernel.schedule_at(0.05, world.crash, "b")
        kernel.run()
        assert metrics.counter_value("msg.drop.str") == 1
        assert metrics.counter_value("msg.deliver.str") == 0

    def test_envelope_is_named_by_its_payload_and_delivered_whole(self, sent):
        kernel = Kernel()
        metrics = MetricsRegistry()
        world = World(kernel, FixedDelayNetwork(0.1),
                      obs=Obs(metrics=metrics), measure_bytes=True)
        a, b = world.add(Recorder("a")), world.add(Recorder("b"))
        world.start()
        envelope = Wrapped("x")
        a.send("b", envelope)
        kernel.run()
        a.send("b", Wrapped("y"))
        kernel.schedule_at(kernel.now + 0.05, world.crash, "b")
        kernel.run()
        assert [msg for _t, _src, msg in b.inbox] == [envelope]  # receiver unwraps
        assert [(e.dst, e.msg) for e in sent] == [("b", "x"), ("b", "y")]
        counters = metrics.counters()
        assert not [name for name in counters if "Wrapped" in name]
        assert counters["msg.send.str"] == counters["proc.a.send.str"] == 2
        assert counters["msg.deliver.str"] == counters["msg.drop.str"] == 1
        assert counters["msg.send_bytes.str"] == 2 * wire_size(envelope)

    def test_late_registration_starts(self):
        kernel, world = make_world()
        world.add(Recorder("a"))
        world.start()
        late = world.add(Recorder("late"))
        kernel.run()
        assert late.started == 1
