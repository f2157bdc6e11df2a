"""Unit tests for the leader electors."""

from __future__ import annotations

from repro.election.omega import Heartbeat, OmegaElector
from repro.election.static import ManualElector, ManualElectorGroup, StaticElector
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.world import World

import pytest


class Host(Process):
    """A minimal elector host that records leader changes."""

    def __init__(self, pid, elector):
        super().__init__(pid)
        self.elector = elector
        self.changes: list[object] = []

    def on_start(self):
        self.elector.on_start()

    def on_message(self, src, msg):
        self.elector.on_message(src, msg)

    def on_crash(self):
        self.elector.on_crash()

    def on_recover(self):
        self.elector.on_recover()

    def leader_changed(self, new_leader):
        self.changes.append(new_leader)


class HoldFrom:
    """Zero-latency links, except that whatever ``src`` sends inside one of
    the ``(start, until)`` windows arrives at ``until``: its heartbeats run
    late, in order, and none is lost."""

    def __init__(self, src, windows):
        self.src = src
        self.windows = windows

    def delays(self, src, dst, depart):
        if src == self.src:
            for start, until in self.windows:
                if start <= depart < until:
                    return (until - depart,)
        return (0.0,)


def omega_cluster(n=3, seed=0, hb=0.05, network=None):
    kernel = Kernel(seed=seed)
    world = World(kernel, network)
    pids = tuple(f"r{i}" for i in range(n))
    hosts = []
    for pid in pids:
        elector = OmegaElector(heartbeat_interval=hb)
        host = Host(pid, elector)
        elector.attach(host, pids)
        world.add(host)
        hosts.append(host)
    return kernel, world, hosts


class TestStaticElector:
    def test_fixed_leader_announced_at_start(self):
        elector = StaticElector("r0")
        host = Host("r1", elector)
        elector.attach(host, ("r0", "r1"))
        host.env = None  # not needed
        host.on_start()
        assert host.changes == ["r0"]
        assert elector.current_leader() == "r0"
        assert not elector.is_leader()


class TestManualElector:
    def test_set_leader_notifies(self):
        elector = ManualElector("r0")
        host = Host("r0", elector)
        elector.attach(host, ("r0", "r1"))
        host.on_start()
        elector.set_leader("r1")
        assert host.changes == ["r0", "r1"]

    def test_set_same_leader_no_duplicate_notification(self):
        elector = ManualElector("r0")
        host = Host("r0", elector)
        elector.attach(host, ("r0",))
        host.on_start()
        elector.set_leader("r0")
        assert host.changes == ["r0"]

    def test_group_switches_all(self):
        group = ManualElectorGroup("r0")
        hosts = []
        for pid in ("r0", "r1"):
            elector = group.elector_for(pid)
            host = Host(pid, elector)
            elector.attach(host, ("r0", "r1"))
            host.on_start()
            hosts.append(host)
        group.set_leader("r1")
        assert all(h.changes[-1] == "r1" for h in hosts)


class TestOmegaElector:
    def test_converges_to_lowest_pid(self):
        kernel, _world, hosts = omega_cluster()
        for host in hosts:
            pass
        _world.start()
        kernel.run(until=1.0)
        assert all(h.elector.current_leader() == "r0" for h in hosts)

    def test_leader_crash_triggers_reelection(self):
        kernel, world, hosts = omega_cluster()
        world.start()
        kernel.run(until=1.0)
        world.crash("r0")
        kernel.run(until=2.0)
        survivors = [h for h in hosts if h.pid != "r0"]
        assert all(h.elector.current_leader() == "r1" for h in survivors)

    def test_stability_recovered_lower_pid_does_not_depose(self):
        # §3.6 / [22]: a working leader stays leader even when a
        # smaller-id process comes back.
        kernel, world, hosts = omega_cluster()
        world.start()
        kernel.run(until=1.0)
        world.crash("r0")
        kernel.run(until=2.0)
        world.recover("r0")
        kernel.run(until=4.0)
        survivors = [h for h in hosts if h.pid != "r0"]
        assert all(h.elector.current_leader() == "r1" for h in survivors)

    def test_recovered_process_adopts_current_leader(self):
        kernel, world, hosts = omega_cluster()
        world.start()
        kernel.run(until=1.0)
        world.crash("r0")
        kernel.run(until=2.0)
        world.recover("r0")
        kernel.run(until=4.0)
        r0 = hosts[0]
        assert r0.elector.current_leader() == "r1"

    def test_boot_together_elects_before_one_heartbeat_interval(self):
        # Every peer heard, every claim None: nobody leads, so nobody waits
        # out the grace period.
        kernel, world, hosts = omega_cluster()
        world.start()
        kernel.run(until=0.5 * hosts[0].elector.heartbeat_interval)
        assert [h.elector.current_leader() for h in hosts] == ["r0", "r0", "r0"]
        assert all(h.changes == ["r0"] for h in hosts)

    def test_unheard_peer_keeps_the_grace_period(self):
        kernel, world, hosts = omega_cluster()
        world.crash("r2")  # down at boot: r0 and r1 never hear it
        world.start()
        timeout = 2 * hosts[0].elector.heartbeat_interval
        kernel.run(until=0.99 * timeout)
        assert all(h.changes == [] for h in hosts[:2])
        kernel.run(until=timeout + hosts[0].elector.heartbeat_interval)
        assert [h.elector.current_leader() for h in hosts[:2]] == ["r0", "r0"]

    def test_peer_naming_a_leader_keeps_the_grace_period(self):
        kernel, world, hosts = omega_cluster()
        world.start()
        kernel.run(until=1.0)
        world.crash("r0")
        kernel.run(until=1.02)  # back before anyone suspects it
        world.recover("r0")
        r0 = hosts[0].elector
        grace = 2 * r0.heartbeat_interval
        kernel.run(until=1.02 + 0.99 * grace)
        assert r0.current_leader() is None  # r1 and r2 still name r0
        kernel.run(until=1.02 + grace + r0.heartbeat_interval)
        assert r0.current_leader() == "r0"

    def test_restart_hearing_none_and_incumbent_defers_to_incumbent(self):
        kernel, world, hosts = omega_cluster()
        world.start()
        kernel.run(until=1.0)
        world.crash("r0")
        kernel.run(until=2.0)  # r1 leads r2
        world.crash("r2")
        kernel.run(until=2.5)
        # r0 and r2 restart together: r0 hears r2 claim None and r1 claim
        # itself, and must not take the lead back as the smallest id.
        world.recover("r0")
        world.recover("r2")
        before = len(hosts[0].changes)
        kernel.run(until=4.0)
        assert hosts[0].changes[before:] == ["r1"]
        assert [h.elector.current_leader() for h in hosts] == ["r1", "r1", "r1"]

    def test_validation(self):
        with pytest.raises(ValueError):
            OmegaElector(heartbeat_interval=0.0)

    def test_crashed_leader_suspected_one_missed_heartbeat_after_last_heard(self):
        kernel, world, hosts = omega_cluster()
        world.start()
        kernel.run(until=1.01)  # just after the beat at 1.0
        r1 = hosts[1].elector
        heard = r1._last_heard["r0"]
        assert r1.timeouts["r0"] == 2 * r1.heartbeat_interval
        world.crash("r0")
        kernel.run(until=heard + 2 * r1.heartbeat_interval - 1e-9)
        assert r1.current_leader() == "r0"
        kernel.run(until=heard + 2 * r1.heartbeat_interval)
        assert r1.current_leader() == "r1"

    def test_one_late_heartbeat_is_one_false_suspicion_and_backs_off(self):
        # r0's beats sent in [1.0, 1.07) arrive at 1.07: its last on-time
        # beat left at 0.95, so it is suspected at 0.95 + 2h = 1.05 and
        # heard again at 1.07. The same hold later costs no suspicion.
        hb = 0.05
        network = HoldFrom("r0", [(1.0, 1.07), (2.0, 2.07)])
        kernel, world, hosts = omega_cluster(hb=hb, network=network)
        world.start()
        r1 = hosts[1].elector
        kernel.run(until=1.06)
        assert r1.current_leader() == "r1"  # r0 suspected
        kernel.run(until=1.5)
        assert r1.timeouts["r0"] == pytest.approx(3 * hb)
        switches = r1.switches
        kernel.run(until=3.0)
        assert r1.timeouts["r0"] == pytest.approx(3 * hb)
        assert r1.switches == switches
        assert hosts[2].elector.timeouts["r0"] == pytest.approx(3 * hb)

    def test_timeouts_reset_when_the_process_restarts(self):
        network = HoldFrom("r0", [(1.0, 1.07)])
        kernel, world, hosts = omega_cluster(network=network)
        world.start()
        kernel.run(until=1.5)
        r1 = hosts[1].elector
        assert r1.timeouts["r0"] == pytest.approx(3 * r1.heartbeat_interval)
        world.crash("r1")
        world.recover("r1")
        assert r1.timeouts["r0"] == 2 * r1.heartbeat_interval

    def test_switch_counter(self):
        kernel, world, hosts = omega_cluster()
        world.start()
        kernel.run(until=1.0)
        world.crash("r0")
        kernel.run(until=2.0)
        assert hosts[1].elector.switches >= 2  # initial election + failover

    def test_heartbeats_are_consumed(self):
        elector = OmegaElector()
        host = Host("r0", elector)
        elector.attach(host, ("r0", "r1"))
        assert elector.on_message("r1", Heartbeat(sender="r1")) is True
        assert elector.on_message("r1", "not-a-heartbeat") is False
