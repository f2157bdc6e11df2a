"""Simulated stable-storage device: the bytes that survive a crash.

:class:`SimDisk` models the durability boundary and nothing else — all
timing (append latency, fsync latency, background drain scheduling) lives in
:class:`repro.storage.store.StableStore`, which owns the device and calls
into it at the right simulated instants. Keeping the device pure state
makes crash semantics trivial to reason about: ``World.crash()`` destroys
the process object; the device object persists and is handed to the
reincarnated replica.

State model:

- ``durable``: frames that survived at least one completed, honest fsync
  (or every frame immediately, in ``write_through`` mode — the legacy
  zero-latency semantics used by ``--fsync=async``).
- ``cache``: appended but not yet synced frames. Lost at crash, except a
  torn tail (see below).
- a durable :class:`CheckpointBlob` plus possibly a pending one riding
  the next fsync. Installing a checkpoint truncates the WAL: accept and
  choose records at or below the checkpoint instance are dropped; the
  latest promise/round records are retained (they are not covered by the
  snapshot).

Frames carry a monotonically increasing sequence number. An fsync begun
at sequence ``s`` covers exactly the frames with ``seq <= s`` — frames
appended while the fsync is in flight wait for the next one. A *lying*
fsync (the ``lost_fsync`` nemesis) marks covered frames acked without
moving them to durable; if such a frame is still undurable at crash time
the device is **poisoned**: the replica acknowledged clients on the
strength of writes that never hit the platter, and replay refuses to
resurrect it (fail-stop — rejoining with promise/accept amnesia would be
Byzantine from the protocol's point of view).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.storage.wal import WalRecord, decode_frames, encode_frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.store import RidFold


@dataclass(slots=True)
class CheckpointBlob:
    """Atomic checkpoint unit: snapshot state + the rids it folds in.

    Carrying the service/executed snapshots *inside* the blob is what
    makes checkpoint install crash-atomic: there is no ordering hazard
    between a WAL marker and a separate state file, because there is no
    separate state file. ``group`` names the replication group the blob
    belongs to when several groups share the device.
    """

    instance: int
    service_snap: Any
    executed_snap: dict[str, Any]
    rids: RidFold
    seq: int
    group: int = 0


@dataclass(slots=True)
class Frame:
    seq: int
    record: WalRecord
    acked: bool = False
    status: str = "ok"  # "ok" | "torn" | "corrupt"

    def encode(self) -> bytes:
        return encode_frame(self.record)


@dataclass
class ReplayResult:
    checkpoints: dict[int, CheckpointBlob]
    records: list[WalRecord]
    truncated: int  # torn-tail frames dropped
    status: str  # "ok" | "poisoned" | "corrupt"


@dataclass
class SimDisk:
    """Pure durable state; survives :meth:`crash` by design.

    Checkpoints are keyed by replication group: a sharded process stores
    every hosted group's blobs on the one device.
    """

    write_through: bool = False
    durable: list[Frame] = field(default_factory=list)
    cache: list[Frame] = field(default_factory=list)
    checkpoints: dict[int, CheckpointBlob] = field(default_factory=dict)
    pending_checkpoints: dict[int, CheckpointBlob] = field(default_factory=dict)
    poisoned: bool = False
    torn_armed: bool = False
    _seq: int = 0
    appends: int = 0
    fsyncs: int = 0
    crashes: int = 0

    # -- appends ----------------------------------------------------------

    def append(self, record: WalRecord) -> int:
        """Append a record; returns its sequence number."""
        self._seq = seq = self._seq + 1
        self.appends += 1
        if self.write_through:
            self.durable.append(Frame(seq, record, True))
        else:
            self.cache.append(Frame(seq, record))
        return seq

    def stage_checkpoint(self, blob: CheckpointBlob) -> None:
        """Stage a checkpoint to be installed by the next completed fsync.

        In ``write_through`` mode the install is immediate, matching the
        zero-latency durability of that mode.
        """
        if self.write_through:
            self._install_checkpoint(blob)
        else:
            self.pending_checkpoints[blob.group] = blob

    @property
    def last_seq(self) -> int:
        return self._seq

    @property
    def unsynced(self) -> int:
        return len(self.cache)

    # -- fsync ------------------------------------------------------------

    def complete_fsync(self, upto_seq: int, lie: bool = False) -> int:
        """Persist (or, when lying, merely ack) frames with seq <= upto_seq.

        Returns the number of frames covered. An honest fsync also
        installs a staged checkpoint whose seq is covered, then truncates
        the WAL against the installed checkpoint.
        """
        self.fsyncs += 1
        covered = [f for f in self.cache if f.seq <= upto_seq]
        for frame in covered:
            frame.acked = True
        if lie:
            return len(covered)
        self.cache = [f for f in self.cache if f.seq > upto_seq]
        self.durable.extend(covered)
        for group in sorted(self.pending_checkpoints):
            pending = self.pending_checkpoints[group]
            if pending.seq <= upto_seq:
                del self.pending_checkpoints[group]
                self._install_checkpoint(pending)
        return len(covered)

    def _install_checkpoint(self, blob: CheckpointBlob) -> None:
        self.checkpoints[blob.group] = blob
        # WAL truncation: each group's snapshot subsumes that group's
        # accepts/chooses at or below its instance. Keep only the latest
        # promise and round records per group — earlier ones are
        # superseded, and Paxos only needs the maximum.
        kept: list[Frame] = []
        last_promise: dict[int, Frame] = {}
        last_round: dict[int, Frame] = {}
        for frame in self.durable:
            record = frame.record
            kind = record.kind
            if kind == "promise":
                last_promise[record.group] = frame
            elif kind == "round":
                last_round[record.group] = frame
            else:
                # accept payloads lead with a ProposalNumber, choose
                # payloads with a bare instance id.
                head = record.payload[0]
                instance = head.instance if kind == "accept" else head
                covering = self.checkpoints.get(record.group)
                if covering is None or instance > covering.instance:
                    kept.append(frame)
        head = list(last_promise.values()) + list(last_round.values())
        head.sort(key=lambda f: f.seq)
        self.durable = head + kept

    # -- crash ------------------------------------------------------------

    def crash(self) -> None:
        """Apply power-loss semantics: drop the cache, honour armed faults.

        A pending (never-synced) checkpoint is lost. An armed torn write
        lands the *first* cached frame on the platter marked torn — the
        write that was in flight when power died. Any frame or checkpoint
        that was fsync-acked but never persisted (a lying fsync) poisons
        the device.
        """
        self.crashes += 1
        if any(f.acked for f in self.cache):
            self.poisoned = True
        # Losing staged-but-unsynced checkpoints is the normal crash
        # contract; a *lied-about* one poisons via its covered frames.
        self.pending_checkpoints = {}
        if self.torn_armed and self.cache:
            torn = self.cache[0]
            torn.status = "torn"
            self.durable.append(torn)
        self.torn_armed = False
        self.cache = []

    # -- fault injection --------------------------------------------------

    def arm_torn_write(self) -> None:
        self.torn_armed = True

    def corrupt_record(self, fraction: float) -> bool:
        """Flip a bit of the durable frame at ``fraction`` of the log.

        Never rots the tail frame: a corrupt tail is indistinguishable
        from a torn write, so replay would silently truncate it — and with
        it a record that may have been fsync-acked, which is amnesia, not
        the deterministic mid-log fail-stop this nemesis probes. Returns
        ``False`` when the log is too short to have a non-tail frame.
        """
        if len(self.durable) < 2:
            return False
        index = min(
            len(self.durable) - 2, int(fraction * (len(self.durable) - 1))
        )
        self.durable[index].status = "corrupt"
        return True

    @property
    def intact(self) -> bool:
        return not self.poisoned and all(f.status == "ok" for f in self.durable)

    # -- replay -----------------------------------------------------------

    def replay(self) -> ReplayResult:
        """Decode the durable log for recovery.

        Byte-faithful: frames are re-encoded and run through the frame
        decoder, so torn-tail truncation exercises the same CRC check a
        real implementation would. A torn tail truncates; a corrupt
        record before the tail, or a poisoned device, is fail-stop.
        """
        if self.poisoned:
            return ReplayResult(dict(self.checkpoints), [], 0, "poisoned")
        records: list[WalRecord] = []
        truncated = 0
        for i, frame in enumerate(self.durable):
            if frame.status == "ok":
                records.append(frame.record)
                continue
            data = bytearray(frame.encode())
            data[len(data) // 2] ^= 0xFF
            decoded, _, _ = decode_frames(bytes(data))
            if decoded:  # pragma: no cover - bit flip always breaks the CRC
                records.extend(decoded)
                continue
            if frame.status == "torn" and i == len(self.durable) - 1:
                truncated = 1
                self.durable = self.durable[:i]
                return ReplayResult(dict(self.checkpoints), records, truncated, "ok")
            return ReplayResult(dict(self.checkpoints), [], 0, "corrupt")
        return ReplayResult(dict(self.checkpoints), records, truncated, "ok")
