"""The replica-facing stable-storage API.

:class:`StableStore` is the single gateway for every stable-state
mutation a replica makes (a group's ``.store`` is constructed once, in
``ReplicationGroup.__init__``, and never rebound): accepted proposals,
chosen values, the promised ballot, the highest observed round,
checkpoints, and snapshot installs. It owns the volatile
:class:`repro.core.log.ReplicaLog` (the working view) for one replication
group, and writes through a :class:`StoragePump` — the per-*process*
durability substrate: one :class:`repro.storage.device.SimDisk`, one
fsync pump, one crash/replay cycle. A replica process
(:class:`repro.shard.host.GroupHost`) hands every hosted group's store the
same pump, so all groups share one WAL, one group-commit clock, and one
crash; fault injection (``inject_*``) and device health (``intact``,
``halted``) are the pump's, not any one store's. A group standing alone
(:class:`repro.core.replica.Replica`) creates its own pump.

Three fsync modes (``ReplicaConfig.fsync_mode``):

* ``async`` — the legacy semantics: appends are durable immediately and
  :meth:`flush` invokes its callback inline. Zero extra events, zero
  extra latency; runs are byte-identical to the pre-storage simulator.
* ``sync`` — a durability barrier starts an fsync at once. A background
  append (e.g. a Chosen record) takes one of two paths: made while an
  fsync is in flight, it rides the next fsync, started as soon as that one
  completes; made while the device is idle, it arms the group-commit timer
  and drains when the timer fires, or sooner with the fsync the next
  barrier starts (which cancels the timer).
* ``group`` — barriers and background appends both wait for the
  group-commit timer, amortizing one modeled fsync over a batch.

Durability barriers: protocol code calls ``flush(callback)`` before any
externally visible promise of durability (sending a Promise, sending an
AcceptedBatch, counting the leader's own acceptance toward a quorum).
The callback fires once every record appended so far is durable, in its
caller's trace context. Only one fsync is in flight at a time; an fsync
begun at append-sequence *s* covers exactly the records with seq <= s.
The sequence numbers are device-wide, so one fsync settles barriers of
every group sharing the pump.

Crash/restart: :meth:`StoragePump.crash` drops in-flight fsyncs and
waiters (the device applies power-loss semantics itself) and is
idempotent until the next recovery, so each group's ``on_crash`` may
safely delegate to it. :meth:`StableStore.recover` replays the durable
checkpoint + WAL tail into a fresh log; the device replay happens once
per process restart (cached on the pump) and each group consumes its own
records and checkpoint from it. It returns ``None`` when the device is
not trustworthy (a lying fsync poisoned it, or a synced record rotted) —
the replica must then **fail-stop** rather than rejoin: re-entering the
protocol after forgetting a promise or an acceptance is Byzantine, not
crash-faulty, and would let Paxos choose two values for one instance.
Because the device is shared, refusal halts every group on the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.ballot import Ballot, ProposalNumber
from repro.core.log import ReplicaLog
from repro.core.messages import Proposal
from repro.storage.device import CheckpointBlob, ReplayResult, SimDisk
from repro.storage.wal import WalRecord
from repro.types import GroupId, InstanceId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.group import ReplicationGroup


@dataclass(frozen=True, slots=True)
class RecoveredState:
    """What replay rebuilt; the replica adopts these in ``on_recover``."""

    promised: Ballot
    max_round: int
    checkpoint: tuple[InstanceId, Any, dict[str, Any]]
    replayed_records: int
    truncated_tail: int


class StoragePump:
    """Per-process durable substrate: one device, one fsync pump.

    ``host`` is the world-registered process (the
    :class:`~repro.shard.host.GroupHost`, or the replica itself when a
    group stands alone): its timers die with the process epoch, its config
    sets the fsync mode and latencies, and its tracer/profiler account the
    modeled device time.
    """

    def __init__(self, host: Any) -> None:
        self.host = host
        config = host.config
        self.mode = config.fsync_mode
        self.write_through = self.mode == "async"
        self.device = SimDisk(write_through=self.write_through)
        #: Barrier callbacks: ``(target_seq, callback, trace_ctx)``.
        self._waiters: list[tuple[int, Any, Any]] = []
        #: Append seq covered by the in-flight fsync (None = none running).
        self._fsync_covered: int | None = None
        self._fsync_lie = False
        self._group_timer: Any = None
        #: Storage-nemesis windows (virtual-time horizons).
        self._lie_until = -1.0
        self._stall_until = -1.0
        self._stall_extra = 0.0
        #: True once replay refused the device; every group stays down.
        self.halted = False
        self._crashed = False
        self._replay: ReplayResult | None = None

    # ---------------------------------------------------------------- flushing
    @property
    def needs_barrier(self) -> bool:
        """Whether durability requires waiting (False in ``async`` mode)."""
        return not self.write_through

    def flush(self, callback: Any) -> None:
        """Invoke ``callback`` once everything appended so far is durable."""
        if self.write_through:
            callback()
            return
        device = self.device
        if (
            self._fsync_covered is None
            and device.unsynced == 0
            and not device.pending_checkpoints
        ):
            callback()
            return
        self._waiters.append((device.last_seq, callback, self.host.tracer.current))
        if self.mode == "sync":
            self._start_fsync()
        else:
            self.ensure_drain()

    def ensure_drain(self) -> None:
        """Arm the group-commit timer unless a drain is already underway."""
        if self._fsync_covered is not None or self._group_timer is not None:
            return
        host = self.host
        # Background durability is not part of any request's causal chain.
        token = host.tracer.activate(None)
        try:
            self._group_timer = host.set_timer(
                host.config.group_commit_interval, self._drain_tick
            )
        finally:
            host.tracer.restore(token)

    def _drain_tick(self) -> None:
        self._group_timer = None
        self._start_fsync()

    def _start_fsync(self) -> None:
        if self.halted or self._fsync_covered is not None:
            return
        device = self.device
        if device.unsynced == 0 and not device.pending_checkpoints:
            self._fire_waiters(device.last_seq)
            return
        if self._group_timer is not None:
            self._group_timer.cancel()
            self._group_timer = None
        host = self.host
        now = host.now
        self._fsync_covered = device.last_seq
        self._fsync_lie = now < self._lie_until
        latency = host.config.fsync_latency
        if now < self._stall_until:
            latency += self._stall_extra
        profiler = host.profiler
        if profiler.enabled:
            # Modeled device time, accounted like the leader's modeled E.
            profiler.stat((str(host.pid), "fsync")).add_cpu(latency)
        token = host.tracer.activate(None)
        try:
            host.set_timer(latency, self._fsync_done)
        finally:
            host.tracer.restore(token)

    def _fsync_done(self) -> None:
        covered = self._fsync_covered
        if covered is None:  # pragma: no cover - timers die with the epoch
            return
        lie = self._fsync_lie
        self._fsync_covered = None
        self._fsync_lie = False
        device = self.device
        device.complete_fsync(covered, lie=lie)
        host = self.host
        if host.metrics.enabled:
            host.metrics.counter("storage.fsyncs").inc()
            if lie:
                host.metrics.counter("storage.fsyncs_lost").inc()
        self._fire_waiters(covered)
        if self._waiters:
            self._start_fsync()
        elif device.unsynced or device.pending_checkpoints:
            if self.mode == "sync":
                self._start_fsync()
            else:
                self.ensure_drain()

    def _fire_waiters(self, covered: int) -> None:
        if not self._waiters:
            return
        ready = [w for w in self._waiters if w[0] <= covered]
        if not ready:
            return
        self._waiters = [w for w in self._waiters if w[0] > covered]
        tracer = self.host.tracer
        for _seq, callback, ctx in ready:
            token = tracer.activate_for(ctx)
            try:
                callback()
            finally:
                tracer.restore(token)

    # ------------------------------------------------------------ crash/replay
    def crash(self) -> None:
        """Power loss: the device keeps only what was honestly synced.

        Idempotent until the next replay — every group hosted on the
        process delegates here from ``on_crash``, but the device must
        apply power-loss semantics exactly once per crash.
        """
        if self._crashed:
            return
        self._crashed = True
        self._replay = None
        self.device.crash()
        self._waiters = []
        self._fsync_covered = None
        self._fsync_lie = False
        self._group_timer = None  # the epoch bump killed the real timer

    def replay_once(self) -> ReplayResult:
        """Replay the device once per restart; every group shares the result."""
        if self._replay is None:
            self._replay = self.device.replay()
            self._crashed = False
            if self._replay.status != "ok":
                self.halted = True
        return self._replay

    # --------------------------------------------------------- fault injection
    def inject_torn_write(self) -> None:
        self.device.arm_torn_write()

    def inject_lost_fsync(self, duration: float) -> None:
        self._lie_until = self.host.now + duration

    def inject_disk_stall(self, duration: float, extra: float) -> None:
        self._stall_until = self.host.now + duration
        self._stall_extra = extra

    def inject_corruption(self, fraction: float) -> bool:
        return self.device.corrupt_record(fraction)

    @property
    def intact(self) -> bool:
        """No lying fsync ever bit and no synced record rotted."""
        return not self.halted and self.device.intact


class StableStore:
    """Stable storage for one replication group: WAL view + checkpoints.

    ``pump`` is the per-process substrate; omit it for a standalone
    replica (the store then creates and owns its own). ``group``
    namespaces this store's WAL records and checkpoints on the shared
    device.
    """

    def __init__(
        self,
        host: "ReplicationGroup",
        pump: StoragePump | None = None,
        group: GroupId = 0,
    ) -> None:
        self.host = host
        self.group = group
        self.pump = pump if pump is not None else StoragePump(host)
        self.mode = self.pump.mode
        self.write_through = self.pump.write_through
        self.log = ReplicaLog()
        #: The latest checkpoint as the replica sees it (may be ahead of
        #: the durable one while its fsync is in flight).
        self._checkpoint: tuple[InstanceId, Any, dict[str, Any]] = (0, None, {})
        #: Cumulative rids of every chosen request covered by the current
        #: checkpoint (only maintained with ``track_commits``).
        self._checkpoint_rids: frozenset[str] = frozenset()
        #: The host's ``storage.appends`` counter, once an append needed it.
        self._appends: Any = None

    @property
    def device(self) -> SimDisk:
        return self.pump.device

    def initialize(self, service_snap: Any) -> None:
        """Record the genesis checkpoint (instance 0, fresh service)."""
        self._checkpoint = (0, service_snap, {})

    # -------------------------------------------------------------- mutations
    def accept(self, pn: ProposalNumber, value: Proposal) -> None:
        self.log.accept(pn, value)
        self._append(WalRecord("accept", (pn, value), self.group))

    def choose(self, instance: InstanceId, value: Proposal) -> None:
        self.log.choose(instance, value)
        self._append(WalRecord("choose", (instance, value), self.group))

    def record_promise(self, ballot: Ballot) -> None:
        self._append(WalRecord("promise", ballot, self.group))

    def record_round(self, round_: int) -> None:
        self._append(WalRecord("round", round_, self.group))

    def _append(self, record: WalRecord) -> None:
        host = self.host
        profiler = host.profiler
        if profiler.enabled:
            profiler.enter("append")
            try:
                self.pump.device.append(record)
            finally:
                profiler.exit()
        else:
            self.pump.device.append(record)
        metrics = host.metrics
        if metrics.enabled:
            counter = self._appends
            if counter is None:  # resolved at the first append, then held
                counter = self._appends = metrics.counter("storage.appends")
            counter.value += 1
        if not self.write_through:
            self.pump.ensure_drain()

    # ------------------------------------------------------------ checkpoints
    @property
    def checkpoint(self) -> tuple[InstanceId, Any, dict[str, Any]]:
        return self._checkpoint

    @property
    def checkpoint_rids(self) -> frozenset[str]:
        return self._checkpoint_rids

    def write_checkpoint(self, instance: InstanceId) -> None:
        """Snapshot the host's state at ``instance`` and compact the log.

        The volatile log compacts immediately; the durable WAL keeps its
        records until the checkpoint blob itself is fsynced (the device
        truncates atomically at install), so a crash in between replays
        from the *previous* durable checkpoint without data loss.
        """
        host = self.host
        rids = self.rid_fold(instance)
        snap = (instance, host.service.snapshot(), host.executed.snapshot())
        self._checkpoint = snap
        self._checkpoint_rids = rids
        blob = CheckpointBlob(
            instance, snap[1], snap[2], rids, self.device.last_seq, self.group
        )
        self.log.compact(min(instance, self.log.frontier))
        self.device.stage_checkpoint(blob)
        if not self.write_through:
            self.pump.ensure_drain()
        if host.metrics.enabled:
            host.metrics.counter("storage.checkpoints").inc()

    def install_state(
        self,
        instance: InstanceId,
        service_snap: Any,
        executed_snap: dict[str, Any],
        rids: frozenset[str] = frozenset(),
    ) -> None:
        """Adopt a transferred snapshot at ``instance`` as a checkpoint.

        Same durability contract as :meth:`write_checkpoint`. ``rids`` is
        the sender's cumulative chosen-request fold (empty when the peer
        does not track commits); our own fold stays valid — everything it
        covers is chosen at or below ``instance`` too.
        """
        self.log.install_prefix(instance)
        if self.host.config.track_commits:
            self._checkpoint_rids = self._checkpoint_rids | rids
        snap = (instance, service_snap, dict(executed_snap))
        self._checkpoint = snap
        blob = CheckpointBlob(
            instance,
            service_snap,
            snap[2],
            self._checkpoint_rids,
            self.device.last_seq,
            self.group,
        )
        self.device.stage_checkpoint(blob)
        if not self.write_through:
            self.pump.ensure_drain()

    def rid_fold(self, instance: InstanceId) -> frozenset[str]:
        """Rids of every chosen request at or below ``instance``: the
        current checkpoint's fold plus retained chosen entries."""
        if not self.host.config.track_commits:
            return frozenset()
        rids = set(self._checkpoint_rids)
        for inst, value in self.log.chosen_items():
            if inst <= instance:
                for request in value.requests:
                    rids.add(str(request.rid))
        return frozenset(rids)

    # ---------------------------------------------------------------- flushing
    @property
    def needs_barrier(self) -> bool:
        """Whether durability requires waiting (False in ``async`` mode)."""
        return self.pump.needs_barrier

    def flush(self, callback: Any) -> None:
        """Invoke ``callback`` once everything appended so far is durable."""
        self.pump.flush(callback)

    # ------------------------------------------------------------ crash/replay
    def crash(self) -> None:
        """Power loss: the device keeps only what was honestly synced."""
        self.pump.crash()

    def recover(self) -> RecoveredState | None:
        """Replay checkpoint + WAL tail; ``None`` means fail-stop."""
        host = self.host
        profiler = host.profiler
        if profiler.enabled:
            profiler.enter("replay")
        try:
            state = self._recover_inner()
        finally:
            if profiler.enabled:
                profiler.exit()
        if host.metrics.enabled:
            if state is None:
                host.metrics.counter("storage.halts").inc()
            else:
                host.metrics.counter("storage.replays").inc()
                if state.truncated_tail:
                    host.metrics.counter("storage.torn_tails").inc()
        return state

    def _recover_inner(self) -> RecoveredState | None:
        result = self.pump.replay_once()
        if result.status != "ok":
            return None
        log = ReplicaLog()
        blob = result.checkpoints.get(self.group)
        if blob is not None:
            log.install_prefix(blob.instance)
            checkpoint = (blob.instance, blob.service_snap, dict(blob.executed_snap))
            rids = blob.rids
            base = blob.instance
        else:
            checkpoint = (0, self.host.service_factory().snapshot(), {})
            rids = frozenset()
            base = 0
        promised = Ballot.ZERO
        max_round = -1
        replayed = 0
        for record in result.records:
            if record.group != self.group:
                continue
            replayed += 1
            kind = record.kind
            if kind == "accept":
                pn, value = record.payload
                if pn.instance > base:
                    log.accept(pn, value)
            elif kind == "choose":
                instance, value = record.payload
                if instance > base and not log.is_chosen(instance):
                    log.choose(instance, value)
            elif kind == "promise":
                if record.payload > promised:
                    promised = record.payload
            elif record.payload > max_round:
                max_round = record.payload
        self.log = log
        self._checkpoint = checkpoint
        self._checkpoint_rids = rids if self.host.config.track_commits else frozenset()
        return RecoveredState(
            promised=promised,
            max_round=max_round,
            checkpoint=checkpoint,
            replayed_records=replayed,
            truncated_tail=result.truncated,
        )

    # -------------------------------------------------------------- inspection
    def durable_rids(self) -> frozenset[str]:
        """Rids of this group's client requests provably on the platter
        *right now*.

        Read-only (unlike :meth:`recover`, this never truncates): walks
        the durable frames the way replay would, unioned with the durable
        checkpoint's fold. Used by the acked-durability invariant — an
        acked write must appear in a majority-intact cluster's union.
        """
        device = self.device
        if device.poisoned:
            return frozenset()
        rids: set[str] = set()
        blob = device.checkpoints.get(self.group)
        if blob is not None:
            rids.update(blob.rids)
        frames = device.durable
        for i, frame in enumerate(frames):
            if frame.status != "ok":
                if frame.status == "torn" and i == len(frames) - 1:
                    break  # replay would truncate here
                return frozenset()  # replay would refuse this device
            record = frame.record
            if record.group != self.group:
                continue
            if record.kind in ("accept", "choose"):
                for request in record.payload[1].requests:
                    rids.add(str(request.rid))
        return frozenset(rids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StableStore {self.host.pid}/g{self.group} mode={self.mode} "
            f"durable={len(self.device.durable)} unsynced={self.device.unsynced} "
            f"ckpt={self._checkpoint[0]}>"
        )
