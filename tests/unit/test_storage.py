"""Stable-storage subsystem: WAL framing, device crash semantics, store."""

from __future__ import annotations

import pytest

from repro.core.ballot import Ballot, ProposalNumber
from repro.core.config import ReplicaConfig
from repro.core.messages import Proposal
from repro.core.requests import ClientRequest, RequestId
from repro.errors import ConfigError
from repro.storage.device import CheckpointBlob, SimDisk
from repro.storage.store import StableStore
from repro.storage.wal import WalRecord, decode_frames, encode_frame
from repro.types import RequestKind


def proposal(client: str = "c0", seq: int = 1) -> Proposal:
    request = ClientRequest(
        rid=RequestId(client, seq), kind=RequestKind.WRITE, op=("add", 1)
    )
    return Proposal(requests=(request,), payload=None)


def pn(instance: int, round_: int = 1, leader: str = "r0") -> ProposalNumber:
    return ProposalNumber(Ballot(round_, leader), instance)


def accept_record(instance: int, seq: int = 1) -> WalRecord:
    return WalRecord("accept", (pn(instance), proposal(seq=seq)))


# ------------------------------------------------------------------- framing
class TestWalFraming:
    def test_round_trip(self):
        records = [
            WalRecord("accept", (pn(1), proposal())),
            WalRecord("choose", (1, proposal())),
            WalRecord("promise", Ballot(3, "r1")),
            WalRecord("round", 7),
        ]
        data = b"".join(encode_frame(r) for r in records)
        decoded, consumed, status = decode_frames(data)
        assert status == "ok"
        assert consumed == len(data)
        assert [r.kind for r in decoded] == [r.kind for r in records]
        assert decoded[3].payload == 7
        assert decoded[2].payload == Ballot(3, "r1")

    def test_torn_tail_truncates(self):
        good = encode_frame(WalRecord("round", 1))
        torn = encode_frame(WalRecord("round", 2))[:-3]
        decoded, consumed, status = decode_frames(good + torn)
        assert status == "torn"
        assert consumed == len(good)
        assert [r.payload for r in decoded] == [1]

    def test_bad_crc_at_tail_is_torn(self):
        good = encode_frame(WalRecord("round", 1))
        bad = bytearray(encode_frame(WalRecord("round", 2)))
        bad[-1] ^= 0xFF
        decoded, _, status = decode_frames(good + bytes(bad))
        assert status == "torn"
        assert len(decoded) == 1

    def test_mid_log_corruption_detected(self):
        first = bytearray(encode_frame(WalRecord("round", 1)))
        second = encode_frame(WalRecord("round", 2))
        first[len(first) // 2] ^= 0xFF
        decoded, consumed, status = decode_frames(bytes(first) + second)
        assert status == "corrupt"
        assert decoded == []
        assert consumed == 0

    def test_empty_stream_ok(self):
        assert decode_frames(b"") == ([], 0, "ok")


# -------------------------------------------------------------------- device
class TestSimDisk:
    def test_write_through_is_immediately_durable(self):
        disk = SimDisk(write_through=True)
        disk.append(WalRecord("round", 1))
        assert disk.unsynced == 0
        assert len(disk.durable) == 1
        assert disk.durable[0].acked

    def test_fsync_covers_only_earlier_seqs(self):
        disk = SimDisk()
        s1 = disk.append(WalRecord("round", 1))
        disk.append(WalRecord("round", 2))
        assert disk.unsynced == 2
        covered = disk.complete_fsync(s1)
        assert covered == 1
        assert len(disk.durable) == 1
        assert disk.unsynced == 1

    def test_crash_drops_unsynced_cache(self):
        disk = SimDisk()
        disk.append(WalRecord("round", 1))
        disk.crash()
        assert disk.durable == []
        assert not disk.poisoned  # nothing was acked

    def test_lying_fsync_then_crash_poisons(self):
        disk = SimDisk()
        seq = disk.append(WalRecord("round", 1))
        disk.complete_fsync(seq, lie=True)
        assert disk.durable == []  # acked but never persisted
        disk.crash()
        assert disk.poisoned
        assert disk.replay().status == "poisoned"
        assert not disk.intact

    def test_honest_fsync_after_lie_heals(self):
        disk = SimDisk()
        seq = disk.append(WalRecord("round", 1))
        disk.complete_fsync(seq, lie=True)
        disk.complete_fsync(seq)  # honest retry persists the acked frame
        disk.crash()
        assert not disk.poisoned
        assert disk.replay().status == "ok"

    def test_armed_torn_write_lands_truncated_tail(self):
        disk = SimDisk()
        s1 = disk.append(accept_record(1))
        disk.complete_fsync(s1)
        disk.append(accept_record(2, seq=2))
        disk.arm_torn_write()
        disk.crash()
        assert [f.status for f in disk.durable] == ["ok", "torn"]
        result = disk.replay()
        assert result.status == "ok"
        assert result.truncated == 1
        assert len(result.records) == 1  # torn tail dropped, synced prefix kept

    def test_corruption_never_rots_the_tail(self):
        disk = SimDisk()
        assert not disk.corrupt_record(0.5)  # nothing durable yet
        disk.complete_fsync(disk.append(WalRecord("round", 1)))
        assert not disk.corrupt_record(0.5)  # a 1-frame log has only a tail
        disk.complete_fsync(disk.append(WalRecord("round", 2)))
        assert disk.corrupt_record(1.0)
        assert [f.status for f in disk.durable] == ["corrupt", "ok"]
        assert disk.replay().status == "corrupt"
        assert not disk.intact

    def test_checkpoint_waits_for_fsync_and_truncates(self):
        disk = SimDisk()
        disk.append(accept_record(1))
        disk.append(WalRecord("choose", (1, proposal())))
        seq = disk.append(WalRecord("promise", Ballot(2, "r0")))
        blob = CheckpointBlob(1, "snap", {}, frozenset({"c0#1"}), seq)
        disk.stage_checkpoint(blob)
        assert disk.checkpoints.get(0) is None  # not durable yet
        disk.complete_fsync(seq)
        assert disk.checkpoints.get(0) is blob
        # accept/choose at instance <= 1 truncated; latest promise kept.
        assert [f.record.kind for f in disk.durable] == ["promise"]

    def test_pending_checkpoint_lost_at_crash(self):
        disk = SimDisk()
        seq = disk.append(accept_record(1))
        disk.stage_checkpoint(CheckpointBlob(1, "snap", {}, frozenset(), seq))
        disk.crash()
        assert disk.checkpoints.get(0) is None
        assert disk.pending_checkpoints.get(0) is None


# --------------------------------------------------------------------- store
class _Handle:
    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled


class _Tracer:
    enabled = False
    current = None

    def activate(self, ctx):
        return None

    def activate_for(self, ctx):
        return None

    def restore(self, token):
        pass


class _Off:
    enabled = False


class _Service:
    def snapshot(self):
        return "empty"


class _FakeHost:
    """Just enough of a Replica for StableStore: config, clock, timers."""

    def __init__(self, **config) -> None:
        self.config = ReplicaConfig(peers=("r0", "r1", "r2"), **config)
        self.pid = "r0"
        self.now = 0.0
        self.metrics = _Off()
        self.profiler = _Off()
        self.tracer = _Tracer()
        self.service_factory = _Service
        self.timers: list[tuple[float, object, _Handle]] = []

    def set_timer(self, delay, fn, *args):
        handle = _Handle()
        self.timers.append((self.now + delay, lambda: fn(*args), handle))
        return handle

    def advance(self, to: float) -> None:
        while True:
            due = [t for t in self.timers if t[0] <= to and t[2].active]
            if not due:
                break
            due.sort(key=lambda t: t[0])
            at, fn, handle = due[0]
            self.timers.remove((at, fn, handle))
            self.now = max(self.now, at)
            fn()
        self.now = max(self.now, to)


class TestStableStore:
    def test_async_mode_flush_is_inline(self):
        store = StableStore(_FakeHost(fsync_mode="async"))
        store.record_round(1)
        fired = []
        store.flush(lambda: fired.append(True))
        assert fired == [True]
        assert not store.needs_barrier
        assert store.host.timers == []  # no fsync machinery at all

    def test_sync_mode_barrier_waits_for_fsync(self):
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3)
        store = StableStore(host)
        store.record_round(1)
        fired = []
        store.flush(lambda: fired.append(True))
        assert fired == []  # durability costs modeled time
        host.advance(2e-3)
        assert fired == [True]
        assert store.device.unsynced == 0

    def test_group_mode_batches_one_fsync(self):
        host = _FakeHost(
            fsync_mode="group", fsync_latency=1e-3, group_commit_interval=5e-3
        )
        store = StableStore(host)
        fired = []
        store.record_round(1)
        store.flush(lambda: fired.append("a"))
        store.record_round(2)
        store.flush(lambda: fired.append("b"))
        host.advance(0.02)
        assert fired == ["a", "b"]
        assert store.device.fsyncs == 1  # both barriers rode one fsync

    def test_flush_with_nothing_outstanding_is_inline(self):
        store = StableStore(_FakeHost(fsync_mode="sync"))
        fired = []
        store.flush(lambda: fired.append(True))
        assert fired == [True]

    def test_lost_fsync_window_then_crash_halts_recovery(self):
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3)
        store = StableStore(host)
        store.pump.inject_lost_fsync(duration=1.0)
        store.record_round(1)
        store.flush(lambda: None)
        host.advance(0.01)  # the lying fsync acks without persisting
        store.crash()
        assert store.recover() is None
        assert store.pump.halted
        assert not store.pump.intact

    def test_disk_stall_delays_fsync(self):
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3)
        store = StableStore(host)
        store.pump.inject_disk_stall(duration=1.0, extra=5e-3)
        store.record_round(1)
        fired = []
        store.flush(lambda: fired.append(True))
        host.advance(2e-3)  # normal latency has passed, stall has not
        assert fired == []
        host.advance(7e-3)
        assert fired == [True]

    def test_recover_replays_synced_records(self):
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3, track_commits=True)
        store = StableStore(host)
        store.accept(pn(1), proposal(seq=1))
        store.choose(1, proposal(seq=1))
        store.record_promise(Ballot(4, "r1"))
        store.record_round(9)
        store.flush(lambda: None)
        host.advance(0.01)
        store.crash()
        state = store.recover()
        assert state is not None
        assert state.promised == Ballot(4, "r1")
        assert state.max_round == 9
        assert state.replayed_records == 4
        assert store.log.is_chosen(1)
        assert store.durable_rids() == frozenset({"c0#1"})

    def test_unsynced_records_lost_at_crash(self):
        host = _FakeHost(fsync_mode="group", group_commit_interval=1.0)
        store = StableStore(host)
        store.accept(pn(1), proposal())
        store.crash()  # group timer never fired: nothing durable
        state = store.recover()
        assert state is not None
        assert state.replayed_records == 0
        assert not store.log.is_chosen(1)


class TestConfigValidation:
    PEERS = ("r0", "r1", "r2")

    def test_unknown_fsync_mode_rejected(self):
        with pytest.raises(ConfigError):
            ReplicaConfig(peers=self.PEERS, fsync_mode="lazy")

    @pytest.mark.parametrize(
        "field", ["fsync_latency", "group_commit_interval"]
    )
    def test_non_positive_latencies_rejected(self, field):
        with pytest.raises(ConfigError):
            ReplicaConfig(peers=self.PEERS, **{field: 0.0})
