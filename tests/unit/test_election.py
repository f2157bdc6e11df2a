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


def omega_cluster(n=3, seed=0, hb=0.05, timeout=0.25):
    kernel = Kernel(seed=seed)
    world = World(kernel)
    pids = tuple(f"r{i}" for i in range(n))
    hosts = []
    for pid in pids:
        elector = OmegaElector(heartbeat_interval=hb, suspect_timeout=timeout)
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
        timeout = hosts[0].elector.suspect_timeout
        kernel.run(until=0.99 * timeout)
        assert all(h.changes == [] for h in hosts[:2])
        kernel.run(until=timeout + hosts[0].elector.heartbeat_interval)
        assert [h.elector.current_leader() for h in hosts[:2]] == ["r0", "r0"]

    def test_peer_naming_a_leader_keeps_the_grace_period(self):
        kernel, world, hosts = omega_cluster()
        world.start()
        kernel.run(until=1.0)
        world.crash("r0")
        kernel.run(until=1.05)  # back before anyone suspects it
        world.recover("r0")
        r0 = hosts[0].elector
        kernel.run(until=1.05 + 0.99 * r0.suspect_timeout)
        assert r0.current_leader() is None  # r1 and r2 still name r0
        kernel.run(until=1.05 + r0.suspect_timeout + r0.heartbeat_interval)
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
            OmegaElector(heartbeat_interval=0.5, suspect_timeout=0.25)

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
