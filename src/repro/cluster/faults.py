"""Fault schedules: scripted crashes, recoveries, partitions, leader
switches, and network disturbance bursts against a running
:class:`repro.cluster.harness.Cluster`.

Actions are applied at absolute simulated times. With the ``manual``
elector, :meth:`FaultSchedule.switch_leader` flips every replica's view at
once (an idealized instantaneous election); with the ``omega`` elector,
crash the leader instead and let the heartbeats time out.

Inputs are validated at schedule-build time (unknown pids, negative times,
out-of-range rates and durations, double-crash of the same pid at the same
instant) so misconfigured fault
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
    #: ``(at, label)`` of every *booked* fault, in booking order. A booking
    #: is not a firing: ``Cluster.run`` returns once the clients finish, and
    #: a fault booked later never fires. Its ``fault.<kind>`` counter says
    #: whether it did.
    applied: list[tuple[float, str]] = field(default_factory=list)
    _booked: set[tuple[str, ProcessId, float]] = field(default_factory=set)

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

    # ------------------------------------------------------------- scheduling
    def _schedule(self, at: float, label: str, kind: str, action, *args) -> "FaultSchedule":
        """Book ``action(*args)`` at ``at``; it counts as ``fault.<kind>``
        when it fires."""
        self.cluster.kernel.schedule_at(at, self._fire, kind, action, *args)
        self.applied.append((at, label))
        return self

    def _fire(self, kind: str, action, *args) -> None:
        self.cluster.metrics.counter(f"fault.{kind}").inc()
        action(*args)

    # ----------------------------------------------------------------- faults
    def crash(self, pid: ProcessId, at: float) -> "FaultSchedule":
        return self._toggle("crash", self.cluster.world.crash, pid, at)

    def recover(self, pid: ProcessId, at: float) -> "FaultSchedule":
        return self._toggle("recover", self.cluster.world.recover, pid, at)

    def _toggle(self, verb: str, action, pid: ProcessId, at: float) -> "FaultSchedule":
        self._validate_time(at, f"{verb} {pid}")
        self._validate_pid(pid, verb)
        if (verb, pid, at) in self._booked:
            raise ConfigError(
                f"{verb} {pid!r} at t={at}: already scheduled to {verb} at that instant"
            )
        self._booked.add((verb, pid, at))
        return self._schedule(at, f"{verb} {pid}", verb, action, pid)

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
        where = "" if scope is None else f" on {','.join(scope)}"
        shard = "" if group == 0 else f" [g{group}]"
        return self._schedule(
            at, f"switch leader -> {new_leader}{where}{shard}",
            "leader_switch", electors.set_leader, new_leader, scope,
        )

    def partition(self, groups: Iterable[Iterable[ProcessId]], at: float) -> "FaultSchedule":
        frozen = [list(g) for g in groups]
        self._validate_time(at, f"partition {frozen}")
        for group in frozen:
            for pid in group:
                self._validate_pid(pid, "partition")
        partitions = self.cluster.network.partitions
        return self._schedule(
            at, f"partition {frozen}", "partition", partitions.partition, frozen
        )

    def heal(self, at: float) -> "FaultSchedule":
        self._validate_time(at, "heal")
        partitions = self.cluster.network.partitions
        return self._schedule(at, "heal partition", "heal", partitions.heal)

    # --------------------------------------------------------- storage faults
    def _pump(self, pid: ProcessId, at: float, kind: str):
        """The storage pump of replica ``pid`` (only replicas have stable
        storage), after the checks every storage fault shares."""
        self._validate_time(at, f"{kind} {pid}")
        self._validate_pid(pid, kind)
        if pid not in self.cluster.replicas:
            raise ConfigError(f"{kind}: {pid!r} is not a replica (no stable storage)")
        return self.cluster.replicas[pid].pump

    def torn_write(self, pid: ProcessId, at: float) -> "FaultSchedule":
        """Arm a torn write on ``pid``'s device: at its next crash, the
        first unsynced WAL record lands on the platter truncated (replay
        drops it via the CRC check)."""
        pump = self._pump(pid, at, "torn_write")
        return self._schedule(
            at, f"torn write armed on {pid}", "torn_write", pump.inject_torn_write
        )

    def lost_fsync(self, pid: ProcessId, at: float, duration: float) -> "FaultSchedule":
        """During [at, at + duration), ``pid``'s fsyncs acknowledge without
        persisting. Crashing with such lied-about records outstanding
        poisons the device (the replica fail-stops on recovery); an honest
        fsync after the window closes the hazard."""
        pump = self._pump(pid, at, "lost_fsync")
        if duration <= 0:
            raise ConfigError(f"lost_fsync {pid}: duration must be > 0, got {duration}")
        return self._schedule(
            at, f"lost fsync on {pid} for {duration}",
            "lost_fsync", pump.inject_lost_fsync, duration,
        )

    def disk_stall(
        self, pid: ProcessId, at: float, duration: float, extra: float
    ) -> "FaultSchedule":
        """Add ``extra`` seconds to every fsync ``pid`` starts during
        [at, at + duration) — a slow device, not a lying one."""
        pump = self._pump(pid, at, "disk_stall")
        if duration <= 0:
            raise ConfigError(f"disk_stall {pid}: duration must be > 0, got {duration}")
        if extra <= 0:
            raise ConfigError(f"disk_stall {pid}: extra must be > 0, got {extra}")
        return self._schedule(
            at, f"disk stall on {pid} for {duration} (+{extra})",
            "disk_stall", pump.inject_disk_stall, duration, extra,
        )

    def corrupt_record(self, pid: ProcessId, at: float, fraction: float) -> "FaultSchedule":
        """Rot one already-durable WAL record at ``fraction`` of ``pid``'s
        log. Harmless until the replica restarts and replay hits the bad
        CRC mid-log — then it fail-stops rather than rejoin with holes."""
        pump = self._pump(pid, at, "corrupt_record")
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(
                f"corrupt_record {pid}: fraction must be in [0, 1], got {fraction}"
            )
        return self._schedule(
            at, f"corrupt record on {pid} at {fraction:.2f}",
            "corrupt_record", pump.inject_corruption, fraction,
        )

    # ----------------------------------------------------- disturbance bursts
    def loss_burst(self, rate: float, at: float, duration: float) -> "FaultSchedule":
        """Drop ``rate`` of all messages during [at, at + duration)."""
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"loss burst {rate}: rate must be in [0, 1)")
        return self._burst(at, duration, f"loss burst {rate}", loss=rate)

    def dup_burst(self, rate: float, at: float, duration: float) -> "FaultSchedule":
        """Duplicate ``rate`` of all messages during [at, at + duration)."""
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"dup burst {rate}: rate must be in [0, 1]")
        return self._burst(at, duration, f"dup burst {rate}", duplicate=rate)

    def latency_spike(self, extra: float, at: float, duration: float) -> "FaultSchedule":
        """Add ``extra`` seconds to every delivery during [at, at + duration)."""
        if extra < 0:
            raise ConfigError(f"latency spike {extra}: extra must be >= 0")
        return self._burst(at, duration, f"latency spike {extra}", extra_latency=extra)

    def _burst(self, at: float, duration: float, label: str, **fields: float) -> "FaultSchedule":
        self._validate_time(at, label)
        if duration <= 0:
            raise ConfigError(f"{label}: duration must be > 0, got {duration}")
        installed: list[object] = []
        self._schedule(at, label, "burst", self._begin_burst, installed, fields)
        self.cluster.kernel.schedule_at(at + duration, self._end_burst, installed)
        return self

    def _begin_burst(self, installed: list[object], fields: dict[str, float]) -> None:
        network = self.cluster.network
        network.set_disturbance(**fields)
        installed.append(network.disturbance)

    def _end_burst(self, installed: list[object]) -> None:
        # Only clear if our disturbance is still the installed one — a
        # later overlapping burst replaces it and owns its own clearing.
        network = self.cluster.network
        if installed and network.disturbance is installed[0]:
            network.clear_disturbance()
