"""Stable-storage subsystem: WAL framing, device crash semantics, store."""

from __future__ import annotations

import pytest

from repro.core.ballot import Ballot, ProposalNumber
from repro.core.config import ReplicaConfig
from repro.core.messages import Proposal
from repro.core.requests import ClientRequest, ExecutedTable, RequestId
from repro.errors import ConfigError
from repro.storage.device import CheckpointBlob, SimDisk
from repro.storage.store import DRAIN_DELAY, RidFold, StableStore
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


def rids(*names: str) -> RidFold:
    """The fold of ``"c#s"`` names."""
    return RidFold().add(
        RequestId(client, int(seq)) for client, seq in (name.split("#") for name in names)
    )


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
        blob = CheckpointBlob(1, "snap", {}, RidFold().add([RequestId("c0", 1)]), seq)
        disk.stage_checkpoint(blob)
        assert disk.checkpoints.get(0) is None  # not durable yet
        disk.complete_fsync(seq)
        assert disk.checkpoints.get(0) is blob
        # accept/choose at instance <= 1 truncated; latest promise kept.
        assert [f.record.kind for f in disk.durable] == ["promise"]

    def test_pending_checkpoint_lost_at_crash(self):
        disk = SimDisk()
        seq = disk.append(accept_record(1))
        disk.stage_checkpoint(CheckpointBlob(1, "snap", {}, RidFold(), seq))
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
        self.tracer = _Tracer()
        self.service_factory = _Service
        self.service = _Service()
        self.executed = ExecutedTable()
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

    def test_sync_mode_idle_append_is_durable_after_the_drain_delay(self):
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3)
        store = StableStore(host)
        store.record_round(1)  # a background append: no barrier asks for it
        host.advance(DRAIN_DELAY)
        assert store.device.unsynced == 1  # the drain fsync has only begun
        host.advance(DRAIN_DELAY + 1e-3)
        assert (store.device.unsynced, store.device.fsyncs) == (0, 1)

    def test_sync_mode_append_during_an_fsync_rides_the_follow_up(self):
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3)
        store = StableStore(host)
        store.record_round(1)
        host.advance(DRAIN_DELAY + 5e-4)  # the drain fsync is in flight
        store.record_round(2)
        host.advance(DRAIN_DELAY + 1e-3)
        assert (store.device.unsynced, store.device.fsyncs) == (1, 1)
        host.advance(DRAIN_DELAY + 2e-3)  # no second drain delay
        assert (store.device.unsynced, store.device.fsyncs) == (0, 2)

    def test_at_fsync_end_runs_before_the_follow_up_starts(self):
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3)
        store = StableStore(host)
        pump = store.pump
        assert pump.fsync_ends_at is None
        store.record_round(1)
        store.flush(lambda: None)
        assert pump.fsync_ends_at == 1e-3
        store.record_round(2)  # would ride the follow-up on its own
        seen = []
        pump.at_fsync_end(lambda: seen.append((host.now, pump.fsync_ends_at)))
        pump.at_fsync_end(lambda: seen.append("cancelled")).cancel()
        host.advance(1e-3)
        assert seen == [(1e-3, None)]  # between the fsync and its follow-up
        assert pump.fsync_ends_at == 2e-3

    def test_sync_mode_barrier_cancels_the_drain_and_one_fsync_covers_both(self):
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3)
        store = StableStore(host)
        store.record_round(1)
        armed = [handle for _at, _fn, handle in host.timers]
        assert len(armed) == 1  # the drain timer
        host.advance(5e-4)
        store.record_round(2)
        fired = []
        store.flush(lambda: fired.append(True))
        assert armed[0].cancelled
        host.advance(0.02)
        assert fired == [True]
        assert (store.device.unsynced, store.device.fsyncs) == (0, 1)

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
        assert store.durable_rids() == RidFold().add([RequestId("c0", 1)])

    def test_unsynced_records_lost_at_crash(self):
        host = _FakeHost(fsync_mode="sync")
        store = StableStore(host)
        store.accept(pn(1), proposal())
        store.crash()  # the drain timer never fired: nothing durable
        state = store.recover()
        assert state is not None
        assert state.replayed_records == 0
        assert not store.log.is_chosen(1)


class TestCommitFold:
    """The ``track_commits`` fold: what a checkpoint covers, on the platter."""

    @staticmethod
    def _checkpointed() -> tuple[_FakeHost, StableStore]:
        """c0#1, c1#1 and c0#3 chosen at 1..3 and checkpointed at 3, durably."""
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3, track_commits=True)
        store = StableStore(host)
        for instance, (client, seq) in enumerate([("c0", 1), ("c1", 1), ("c0", 3)], 1):
            store.accept(pn(instance), proposal(client, seq))
            store.choose(instance, proposal(client, seq))
        store.write_checkpoint(3)
        store.choose(4, proposal("c1", 2))  # above the checkpoint: WAL only
        store.flush(lambda: None)
        host.advance(0.01)
        return host, store

    def test_fold_survives_checkpoint_install_and_wal_truncation(self):
        _host, store = self._checkpointed()
        assert store.checkpoint_rids == rids("c0#1", "c1#1", "c0#3")
        assert store.device.checkpoints[0].rids == store.checkpoint_rids
        # The install truncated every accept/choose at or below instance 3.
        assert [f.record.payload[0] for f in store.device.durable] == [4]
        assert store.durable_rids() == rids("c0#1", "c1#1", "c0#3", "c1#2")
        assert RequestId("c0", 2) not in store.durable_rids()  # a gap stays a gap

    def test_install_state_keeps_the_union_of_both_folds(self):
        host, store = self._checkpointed()
        store.install_state(9, "theirs", {}, rids("c0#2", "c2#5"))
        union = rids("c0#1", "c0#2", "c0#3", "c1#1", "c2#5")
        assert store.checkpoint_rids == union
        assert store.checkpoint_rids.runs == (
            ("c0", ((1, 3),)), ("c1", ((1, 1),)), ("c2", ((5, 5),))
        )
        store.flush(lambda: None)
        host.advance(0.02)
        assert store.device.checkpoints[0].rids == union

    def test_recover_restores_the_fold_from_the_blob(self):
        _host, store = self._checkpointed()
        store.crash()
        state = store.recover()
        assert state is not None and state.checkpoint[0] == 3
        assert store.checkpoint_rids == rids("c0#1", "c1#1", "c0#3")
        assert store.rid_fold(4) == rids("c0#1", "c1#1", "c0#3", "c1#2")

    def test_poisoned_device_reports_nothing_durable(self):
        host, store = self._checkpointed()
        store.pump.inject_lost_fsync(duration=1.0)
        store.choose(5, proposal("c1", 3))
        store.flush(lambda: None)
        host.advance(0.02)  # the lying fsync acks without persisting
        store.crash()
        assert store.device.poisoned
        assert store.durable_rids() == RidFold()
        assert RequestId("c0", 1) not in store.durable_rids()

    def test_untracked_store_folds_nothing(self):
        host = _FakeHost(fsync_mode="sync", fsync_latency=1e-3)
        store = StableStore(host)
        store.choose(1, proposal())
        store.write_checkpoint(1)
        store.install_state(2, "theirs", {}, rids("c0#2"))
        assert store.checkpoint_rids == RidFold()
        assert store.rid_fold(2) == RidFold()


class TestConfigValidation:
    PEERS = ("r0", "r1", "r2")

    def test_unknown_fsync_mode_rejected(self):
        for mode in ("lazy", "group"):
            with pytest.raises(ConfigError):
                ReplicaConfig(peers=self.PEERS, fsync_mode=mode)

    @pytest.mark.parametrize("field", ["fsync_latency"])
    def test_non_positive_latencies_rejected(self, field):
        with pytest.raises(ConfigError):
            ReplicaConfig(peers=self.PEERS, **{field: 0.0})
