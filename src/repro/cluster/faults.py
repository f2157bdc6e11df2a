"""Fault schedules: scripted crashes, recoveries, partitions, leader
switches, and network disturbance bursts against a running
:class:`repro.cluster.harness.Cluster`.

Actions are applied at absolute simulated times. With the ``manual``
elector, :meth:`FaultSchedule.switch_leader` flips every replica's view at
once (an idealized instantaneous election); with the ``omega`` elector,
crash the leader instead and let the heartbeats time out.

Inputs are validated at schedule-build time (unknown pids, negative times,
double-crash of the same pid at the same instant) so misconfigured fault
scripts fail with a :class:`repro.errors.ConfigError` up front instead of
deep inside the kernel or as a silent no-op. Every applied fault increments
a ``fault.<kind>`` counter in the cluster's metrics registry, so fault
timelines are visible in exported reports.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.harness import Cluster


@dataclass
class FaultSchedule:
    """Builder for a scripted fault timeline on one cluster."""

    cluster: "Cluster"
    applied: list[tuple[float, str]] = field(default_factory=list)
    _crash_times: dict[ProcessId, set[float]] = field(default_factory=dict)
    _recover_times: dict[ProcessId, set[float]] = field(default_factory=dict)

    # ------------------------------------------------------------- validation
    def _validate_time(self, at: float, what: str) -> None:
        if at < 0:
            raise ConfigError(f"{what}: negative time {at}")

    def _validate_pid(self, pid: ProcessId, what: str) -> None:
        if pid not in self.cluster.world.pids:
            raise ConfigError(
                f"{what}: unknown process {pid!r} "
                f"(known: {sorted(self.cluster.world.pids)})"
            )

    def _count(self, kind: str) -> None:
        self.cluster.metrics.counter(f"fault.{kind}").inc()

    # ----------------------------------------------------------------- faults
    def crash(self, pid: ProcessId, at: float) -> "FaultSchedule":
        self._validate_time(at, f"crash {pid}")
        self._validate_pid(pid, "crash")
        times = self._crash_times.setdefault(pid, set())
        if at in times:
            raise ConfigError(
                f"crash {pid!r} at t={at}: already scheduled to crash at that instant"
            )
        times.add(at)
        self.cluster.kernel.schedule_at(at, self._apply_crash, pid)
        self.applied.append((at, f"crash {pid}"))
        return self

    def _apply_crash(self, pid: ProcessId) -> None:
        self._count("crash")
        self.cluster.world.crash(pid)

    def recover(self, pid: ProcessId, at: float) -> "FaultSchedule":
        self._validate_time(at, f"recover {pid}")
        self._validate_pid(pid, "recover")
        times = self._recover_times.setdefault(pid, set())
        if at in times:
            raise ConfigError(
                f"recover {pid!r} at t={at}: already scheduled to recover at that instant"
            )
        times.add(at)
        self.cluster.kernel.schedule_at(at, self._apply_recover, pid)
        self.applied.append((at, f"recover {pid}"))
        return self

    def _apply_recover(self, pid: ProcessId) -> None:
        self._count("recover")
        self.cluster.world.recover(pid)

    def crash_leader(self, at: float) -> "FaultSchedule":
        return self.crash(self.cluster.leader_pid, at)

    def switch_leader(
        self,
        new_leader: ProcessId,
        at: float,
        pids: Iterable[ProcessId] | None = None,
        group: int = 0,
    ) -> "FaultSchedule":
        """Instantaneous view change (manual elector only).

        By default every replica's view flips at once — an idealized
        election. ``pids`` restricts the flip to a subset: during a
        partition, only the side that can run an election learns the new
        leader, while the cut-off minority keeps believing in the old one
        (the split-brain shape nemesis schedules probe for). On a sharded
        cluster ``group`` picks which replication group's leadership
        moves; the other groups keep their leaders.
        """
        self._validate_time(at, f"switch leader -> {new_leader}")
        self._validate_pid(new_leader, "switch_leader")
        scope = None if pids is None else tuple(pids)
        if scope is not None:
            for pid in scope:
                self._validate_pid(pid, "switch_leader scope")
        electors = self.cluster.manual_electors_for(group)
        self.cluster.kernel.schedule_at(
            at, self._apply_switch, electors, new_leader, scope
        )
        where = "" if scope is None else f" on {','.join(scope)}"
        shard = "" if group == 0 else f" [g{group}]"
        self.applied.append((at, f"switch leader -> {new_leader}{where}{shard}"))
        return self

    def _apply_switch(self, group, new_leader: ProcessId, scope) -> None:
        self._count("leader_switch")
        group.set_leader(new_leader, pids=scope)

    def partition(self, groups: Iterable[Iterable[ProcessId]], at: float) -> "FaultSchedule":
        frozen = [list(g) for g in groups]
        self._validate_time(at, f"partition {frozen}")
        for group in frozen:
            for pid in group:
                self._validate_pid(pid, "partition")
        self.cluster.kernel.schedule_at(at, self._apply_partition, frozen)
        self.applied.append((at, f"partition {frozen}"))
        return self

    def _apply_partition(self, frozen: list[list[ProcessId]]) -> None:
        self._count("partition")
        self.cluster.network.partitions.partition(frozen)

    def heal(self, at: float) -> "FaultSchedule":
        self._validate_time(at, "heal")
        self.cluster.kernel.schedule_at(at, self._apply_heal)
        self.applied.append((at, "heal partition"))
        return self

    def _apply_heal(self) -> None:
        self._count("heal")
        self.cluster.network.partitions.heal()

    # --------------------------------------------------------- storage faults
    def _validate_replica(self, pid: ProcessId, what: str) -> None:
        self._validate_pid(pid, what)
        if pid not in self.cluster.replicas:
            raise ConfigError(f"{what}: {pid!r} is not a replica (no stable storage)")

    def torn_write(self, pid: ProcessId, at: float) -> "FaultSchedule":
        """Arm a torn write on ``pid``'s device: at its next crash, the
        first unsynced WAL record lands on the platter truncated (replay
        drops it via the CRC check)."""
        self._validate_time(at, f"torn_write {pid}")
        self._validate_replica(pid, "torn_write")
        self.cluster.kernel.schedule_at(at, self._apply_torn_write, pid)
        self.applied.append((at, f"torn write armed on {pid}"))
        return self

    def _apply_torn_write(self, pid: ProcessId) -> None:
        self._count("torn_write")
        self.cluster.replicas[pid].pump.inject_torn_write()

    def lost_fsync(self, pid: ProcessId, at: float, duration: float) -> "FaultSchedule":
        """During [at, at + duration), ``pid``'s fsyncs acknowledge without
        persisting. Crashing with such lied-about records outstanding
        poisons the device (the replica fail-stops on recovery); an honest
        fsync after the window closes the hazard."""
        self._validate_time(at, f"lost_fsync {pid}")
        self._validate_replica(pid, "lost_fsync")
        if duration <= 0:
            raise ConfigError(f"lost_fsync {pid}: duration must be > 0, got {duration}")
        self.cluster.kernel.schedule_at(at, self._apply_lost_fsync, pid, duration)
        self.applied.append((at, f"lost fsync on {pid} for {duration}"))
        return self

    def _apply_lost_fsync(self, pid: ProcessId, duration: float) -> None:
        self._count("lost_fsync")
        self.cluster.replicas[pid].pump.inject_lost_fsync(duration)

    def disk_stall(
        self, pid: ProcessId, at: float, duration: float, extra: float
    ) -> "FaultSchedule":
        """Add ``extra`` seconds to every fsync ``pid`` starts during
        [at, at + duration) — a slow device, not a lying one."""
        self._validate_time(at, f"disk_stall {pid}")
        self._validate_replica(pid, "disk_stall")
        if duration <= 0:
            raise ConfigError(f"disk_stall {pid}: duration must be > 0, got {duration}")
        if extra <= 0:
            raise ConfigError(f"disk_stall {pid}: extra must be > 0, got {extra}")
        self.cluster.kernel.schedule_at(at, self._apply_disk_stall, pid, duration, extra)
        self.applied.append((at, f"disk stall on {pid} for {duration} (+{extra})"))
        return self

    def _apply_disk_stall(self, pid: ProcessId, duration: float, extra: float) -> None:
        self._count("disk_stall")
        self.cluster.replicas[pid].pump.inject_disk_stall(duration, extra)

    def corrupt_record(self, pid: ProcessId, at: float, fraction: float) -> "FaultSchedule":
        """Rot one already-durable WAL record at ``fraction`` of ``pid``'s
        log. Harmless until the replica restarts and replay hits the bad
        CRC mid-log — then it fail-stops rather than rejoin with holes."""
        self._validate_time(at, f"corrupt_record {pid}")
        self._validate_replica(pid, "corrupt_record")
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(
                f"corrupt_record {pid}: fraction must be in [0, 1], got {fraction}"
            )
        self.cluster.kernel.schedule_at(at, self._apply_corrupt_record, pid, fraction)
        self.applied.append((at, f"corrupt record on {pid} at {fraction:.2f}"))
        return self

    def _apply_corrupt_record(self, pid: ProcessId, fraction: float) -> None:
        self._count("corrupt_record")
        self.cluster.replicas[pid].pump.inject_corruption(fraction)

    # ----------------------------------------------------- disturbance bursts
    def loss_burst(self, rate: float, at: float, duration: float) -> "FaultSchedule":
        """Drop ``rate`` of all messages during [at, at + duration)."""
        return self._burst(at, duration, f"loss burst {rate}", loss=rate)

    def dup_burst(self, rate: float, at: float, duration: float) -> "FaultSchedule":
        """Duplicate ``rate`` of all messages during [at, at + duration)."""
        return self._burst(at, duration, f"dup burst {rate}", duplicate=rate)

    def latency_spike(self, extra: float, at: float, duration: float) -> "FaultSchedule":
        """Add ``extra`` seconds to every delivery during [at, at + duration)."""
        return self._burst(at, duration, f"latency spike {extra}", extra_latency=extra)

    def _burst(self, at: float, duration: float, label: str, **fields: float) -> "FaultSchedule":
        self._validate_time(at, label)
        if duration <= 0:
            raise ConfigError(f"{label}: duration must be > 0, got {duration}")
        network = self.cluster.network
        installed: list[object] = []

        def begin() -> None:
            self._count("burst")
            network.set_disturbance(**fields)
            installed.append(network.disturbance)

        def end() -> None:
            # Only clear if our disturbance is still the installed one — a
            # later overlapping burst replaces it and owns its own clearing.
            if installed and network.disturbance is installed[0]:
                network.clear_disturbance()

        self.cluster.kernel.schedule_at(at, begin)
        self.cluster.kernel.schedule_at(at + duration, end)
        self.applied.append((at, label))
        return self
