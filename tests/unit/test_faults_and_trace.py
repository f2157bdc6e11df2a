"""Unit tests for fault schedules and the starter."""

from __future__ import annotations

import pytest

from repro.client.workload import single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.cluster.harness import Cluster, ClusterSpec, Starter
from repro.core.messages import StartSignal
from repro.errors import ConfigError
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.world import World
from repro.types import RequestKind
from tests.conftest import make_test_profile


def small_cluster(**overrides):
    overrides.setdefault("client_timeout", 0.2)
    spec = ClusterSpec(profile=make_test_profile(), **overrides)
    return Cluster(spec, [single_kind_steps(RequestKind.WRITE, 3)])


class TestFaultSchedule:
    def test_crash_recover_applied_at_times(self):
        cluster = small_cluster()
        schedule = FaultSchedule(cluster)
        schedule.crash("r1", at=0.01).recover("r1", at=0.02)
        # ``applied`` lists bookings: both are there before either fires.
        assert [entry for _t, entry in schedule.applied] == ["crash r1", "recover r1"]
        cluster.start()
        cluster.kernel.run(until=0.015)
        assert not cluster.replicas["r1"].alive
        assert cluster.metrics.counter_value("fault.recover") == 0
        cluster.kernel.run(until=0.05)
        assert cluster.replicas["r1"].alive
        assert cluster.metrics.counter_value("fault.recover") == 1

    def test_crash_leader_targets_r0(self):
        cluster = small_cluster()
        FaultSchedule(cluster).crash_leader(at=0.01)
        cluster.start()
        cluster.kernel.run(until=0.02)
        assert not cluster.replicas["r0"].alive

    def test_switch_leader_requires_manual_elector(self):
        cluster = small_cluster()  # static elector
        with pytest.raises(ConfigError):
            FaultSchedule(cluster).switch_leader("r1", at=0.01)

    def test_partition_and_heal(self):
        cluster = small_cluster()
        schedule = FaultSchedule(cluster)
        schedule.partition([["r0"], ["r1", "r2"]], at=0.01)
        schedule.heal(at=0.02)
        cluster.start()
        cluster.kernel.run(until=0.015)
        assert cluster.network.partitions.active
        cluster.kernel.run(until=0.03)
        assert not cluster.network.partitions.active


class TestFaultValidation:
    def test_unknown_pid_rejected(self):
        cluster = small_cluster()
        with pytest.raises(ConfigError, match="unknown process"):
            FaultSchedule(cluster).crash("r9", at=0.01)
        with pytest.raises(ConfigError, match="unknown process"):
            FaultSchedule(cluster).recover("r9", at=0.01)
        with pytest.raises(ConfigError, match="unknown process"):
            FaultSchedule(cluster).partition([["r0"], ["r9"]], at=0.01)

    def test_negative_time_rejected(self):
        cluster = small_cluster()
        with pytest.raises(ConfigError, match="negative time"):
            FaultSchedule(cluster).crash("r0", at=-0.5)
        with pytest.raises(ConfigError, match="negative time"):
            FaultSchedule(cluster).heal(at=-1.0)

    def test_double_crash_same_instant_rejected(self):
        cluster = small_cluster()
        schedule = FaultSchedule(cluster).crash("r0", at=0.01)
        with pytest.raises(ConfigError, match="already scheduled"):
            schedule.crash("r0", at=0.01)
        # Different instants are a legitimate crash-recover-crash script.
        schedule.recover("r0", at=0.02).crash("r0", at=0.03)

    def test_double_recover_same_instant_rejected(self):
        cluster = small_cluster()
        schedule = FaultSchedule(cluster).crash("r0", at=0.01)
        schedule.recover("r0", at=0.02)
        with pytest.raises(ConfigError, match="already scheduled"):
            schedule.recover("r0", at=0.02)
        # A later recover (crash-recover-crash-recover script) is fine.
        schedule.crash("r0", at=0.03).recover("r0", at=0.04)

    def test_storage_faults_require_a_replica(self):
        cluster = small_cluster()
        schedule = FaultSchedule(cluster)
        with pytest.raises(ConfigError, match="not a replica"):
            schedule.torn_write("c0", at=0.01)
        with pytest.raises(ConfigError, match="not a replica"):
            schedule.lost_fsync("c0", at=0.01, duration=0.1)
        with pytest.raises(ConfigError, match="not a replica"):
            schedule.disk_stall("c0", at=0.01, duration=0.1, extra=1e-3)
        with pytest.raises(ConfigError, match="not a replica"):
            schedule.corrupt_record("c0", at=0.01, fraction=0.5)

    def test_storage_fault_parameter_bounds(self):
        cluster = small_cluster()
        schedule = FaultSchedule(cluster)
        with pytest.raises(ConfigError, match="duration"):
            schedule.lost_fsync("r1", at=0.01, duration=0.0)
        with pytest.raises(ConfigError, match="duration"):
            schedule.disk_stall("r1", at=0.01, duration=-0.1, extra=1e-3)
        with pytest.raises(ConfigError, match="extra"):
            schedule.disk_stall("r1", at=0.01, duration=0.1, extra=0.0)
        with pytest.raises(ConfigError, match="fraction"):
            schedule.corrupt_record("r1", at=0.01, fraction=1.5)

    def test_burst_duration_must_be_positive(self):
        cluster = small_cluster()
        with pytest.raises(ConfigError, match="duration"):
            FaultSchedule(cluster).loss_burst(0.5, at=0.01, duration=0.0)
        with pytest.raises(ConfigError, match="duration"):
            FaultSchedule(cluster).dup_burst(0.5, at=0.01, duration=-0.1)

    @pytest.mark.parametrize(
        "burst, value",
        [
            ("loss_burst", 1.5), ("loss_burst", 1.0), ("loss_burst", -0.1),
            ("dup_burst", 1.5), ("dup_burst", -0.1),
            ("latency_spike", -1e-3),
        ],
    )
    def test_burst_value_rejected_when_the_schedule_is_built(self, burst, value):
        # Not when it fires: set_disturbance would raise a bare ValueError
        # from inside Kernel.run.
        cluster = small_cluster()
        with pytest.raises(ConfigError, match=str(value)):
            getattr(FaultSchedule(cluster), burst)(value, at=0.001, duration=0.1)

    def test_burst_values_at_their_bounds_accepted(self):
        schedule = FaultSchedule(small_cluster())
        schedule.loss_burst(0.0, at=0.001, duration=0.1)
        schedule.dup_burst(1.0, at=0.2, duration=0.1)
        schedule.latency_spike(0.0, at=0.4, duration=0.1)
        schedule.cluster.run()

    def test_switch_leader_scope_validated(self):
        cluster = small_cluster(elector="manual")
        with pytest.raises(ConfigError, match="unknown process"):
            FaultSchedule(cluster).switch_leader("r1", at=0.01, pids=["r1", "r9"])

    def test_faults_increment_counters(self):
        cluster = small_cluster()
        schedule = FaultSchedule(cluster)
        schedule.crash("r1", at=0.01).recover("r1", at=0.02)
        schedule.partition([["r0"], ["r1", "r2"]], at=0.03)
        schedule.heal(at=0.04)
        schedule.loss_burst(0.1, at=0.05, duration=0.01)
        cluster.start()
        cluster.kernel.run(until=0.1)
        counters = cluster.metrics.counters()
        for kind in ("crash", "recover", "partition", "heal", "burst"):
            assert counters[f"fault.{kind}"] == 1


class TestScopedLeaderSwitch:
    def test_scoped_switch_flips_only_targets(self):
        cluster = small_cluster(elector="manual")
        schedule = FaultSchedule(cluster)
        schedule.switch_leader("r1", at=0.01, pids=["r1", "r2"])
        cluster.start()
        cluster.kernel.run(until=0.05)
        electors = cluster.manual_electors_for().electors
        # r0 was outside the scope: it still believes in the old view.
        assert electors["r0"].current_leader() == "r0"
        assert electors["r1"].current_leader() == "r1"
        assert electors["r2"].current_leader() == "r1"
        assert any("on r1,r2" in entry for _t, entry in schedule.applied)

    def test_unscoped_switch_flips_everyone(self):
        cluster = small_cluster(elector="manual")
        FaultSchedule(cluster).switch_leader("r2", at=0.01)
        cluster.start()
        cluster.kernel.run(until=0.05)
        electors = cluster.manual_electors_for().electors
        assert all(e.current_leader() == "r2" for e in electors.values())


class TestStarter:
    class Sink(Process):
        def __init__(self, pid):
            super().__init__(pid)
            self.signals = 0

        def on_message(self, src, msg):
            if isinstance(msg, StartSignal):
                self.signals += 1

    def test_starter_fires_at_time(self):
        kernel = Kernel()
        world = World(kernel)
        sink = world.add(self.Sink("c0"))
        world.add(Starter("starter", ("c0",), at=0.5, repeats=0))
        world.start()
        kernel.run(until=0.4)
        assert sink.signals == 0
        kernel.run(until=0.6)
        assert sink.signals == 1

    def test_starter_retransmits(self):
        kernel = Kernel()
        world = World(kernel)
        sink = world.add(self.Sink("c0"))
        world.add(Starter("starter", ("c0",), at=0.0, repeat_interval=0.1, repeats=3))
        world.start()
        kernel.run(until=1.0)
        assert sink.signals == 4  # initial + 3 repeats

    def test_clients_ignore_duplicate_signals(self):
        cluster = small_cluster()
        cluster.run()
        client = cluster.clients[0]
        # Exactly one begin despite repeated signals.
        assert client.completed_requests == 3
        assert client.started_at is not None
