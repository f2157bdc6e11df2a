"""Unit tests for the chaos engine: schedule generation/serialization,
invariant checkers on synthetic snapshots, and trial option validation."""

from __future__ import annotations

import pytest

from repro.chaos.invariants import (
    Violation,
    check_acked_durability,
    check_at_most_once,
    check_linearizability,
    check_liveness,
    check_log_agreement,
    check_prefix_consistency,
    check_state_convergence,
    check_txn_atomicity,
)
from repro.chaos.runner import ChaosOptions
from repro.chaos.schedule import (
    EVENT_KINDS,
    STORAGE_KINDS,
    NemesisEvent,
    NemesisSchedule,
    generate_schedule,
)
from repro.client.client import RequestRecord
from repro.core.messages import Proposal
from repro.core.requests import ClientRequest, RequestId
from repro.errors import ConfigError
from repro.types import ReplyStatus, RequestKind

PIDS = ("r0", "r1", "r2")


# ----------------------------------------------------------------- generation
class TestGenerateSchedule:
    def test_same_seed_same_schedule(self):
        a = generate_schedule(7, PIDS)
        b = generate_schedule(7, PIDS)
        assert a == b

    def test_different_seeds_differ(self):
        schedules = {generate_schedule(s, PIDS).events for s in range(20)}
        assert len(schedules) > 1

    def test_events_sorted_and_within_horizon(self):
        for seed in range(30):
            schedule = generate_schedule(seed, PIDS, horizon=1.5)
            ats = [e.at for e in schedule.events]
            assert ats == sorted(ats)
            # Only the final stabilizing leader switch may exceed the horizon.
            assert all(e.at <= 1.5 + 0.011 for e in schedule.events)

    def test_every_crash_is_paired_with_recovery(self):
        for seed in range(30):
            schedule = generate_schedule(seed, PIDS)
            crashes = sum(1 for e in schedule.events if e.kind == "crash")
            recoveries = sum(1 for e in schedule.events if e.kind == "recover")
            # Final stabilization recovers everyone, so recover >= crash.
            assert recoveries >= crashes

    def test_majority_stays_alive_by_default(self):
        max_faults = (len(PIDS) - 1) // 2
        for seed in range(50):
            schedule = generate_schedule(seed, PIDS)
            down: set[str] = set()
            worst = 0
            for event in schedule.events:
                if event.kind == "crash":
                    down.add(event.pids[0])
                elif event.kind == "recover":
                    down.discard(event.pids[0])
                worst = max(worst, len(down))
            assert worst <= max_faults, f"seed {seed} took down {worst}"

    def test_ends_with_heal_recover_all_and_leader(self):
        schedule = generate_schedule(3, PIDS, horizon=2.0)
        tail = [e for e in schedule.events if e.at >= 2.0]
        kinds = [e.kind for e in tail]
        assert "heal" in kinds
        assert sum(1 for k in kinds if k == "recover") == len(PIDS)
        assert kinds[-1] == "leader"
        # The final switch is unscoped: every replica learns the view.
        assert tail[-1].scope == ()

    def test_leader_switches_target_alive_replicas(self):
        for seed in range(50):
            schedule = generate_schedule(seed, PIDS)
            down: set[str] = set()
            for event in schedule.events:
                if event.kind == "crash":
                    down.add(event.pids[0])
                elif event.kind == "recover":
                    down.discard(event.pids[0])
                elif event.kind == "leader":
                    assert event.pids[0] not in down, f"seed {seed}"

    def test_intensity_scales_event_count(self):
        calm = sum(len(generate_schedule(s, PIDS, intensity=0.3)) for s in range(20))
        wild = sum(len(generate_schedule(s, PIDS, intensity=3.0)) for s in range(20))
        assert wild > calm

    def test_too_few_replicas_rejected(self):
        with pytest.raises(ConfigError):
            generate_schedule(0, ("r0",))

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigError):
            generate_schedule(0, PIDS, horizon=0.0)


# -------------------------------------------------------------- serialization
class TestScheduleSerialization:
    def test_event_round_trip(self):
        event = NemesisEvent(
            at=0.5, kind="leader", pids=("r1",), scope=("r1", "r2")
        )
        assert NemesisEvent.from_dict(event.to_dict()) == event

    def test_schedule_round_trip(self):
        for seed in range(10):
            schedule = generate_schedule(seed, PIDS)
            assert NemesisSchedule.from_dict(schedule.to_dict()) == schedule

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            NemesisEvent(at=0.0, kind="meteor")

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("crash", "pids"), ("recover", "pids"), ("leader", "pids"),
            ("partition", "groups"), ("torn_write", "pids"),
            ("lost_fsync", "pids"), ("disk_stall", "pids"),
            ("corrupt_record", "pids"),
        ],
    )
    def test_event_missing_the_field_its_kind_reads_rejected(self, kind, field):
        # Was an IndexError on pids[0] once describe()/compile_onto ran.
        with pytest.raises(ConfigError, match=f"{kind}.*{field}"):
            NemesisEvent(at=0.1, kind=kind, value=0.5, duration=0.1)
        with pytest.raises(ConfigError, match=f"{kind}.*{field}"):
            NemesisSchedule.from_dict(
                {"seed": 1, "horizon": 1.0, "events": [{"at": 0.1, "kind": kind}]}
            )

    def test_describe_covers_every_kind(self):
        samples = {
            "crash": NemesisEvent(0.1, "crash", pids=("r0",)),
            "partition": NemesisEvent(0.1, "partition", groups=(("r0",), ("r1", "r2"))),
            "heal": NemesisEvent(0.1, "heal"),
            "leader": NemesisEvent(0.1, "leader", pids=("r1",), scope=("r1", "r2")),
            "loss_burst": NemesisEvent(0.1, "loss_burst", value=0.2, duration=0.3),
        }
        for kind, event in samples.items():
            text = event.describe()
            assert kind.split("_")[0] in text

    def test_to_script_is_runnable_fault_calls(self):
        schedule = NemesisSchedule(
            seed=1,
            horizon=1.0,
            events=(
                NemesisEvent(0.1, "crash", pids=("r0",)),
                NemesisEvent(0.2, "partition", groups=(("r0",), ("r1", "r2"))),
                NemesisEvent(0.3, "leader", pids=("r1",), scope=("r1", "r2")),
                NemesisEvent(0.5, "heal"),
                NemesisEvent(0.6, "recover", pids=("r0",)),
                NemesisEvent(0.7, "dup_burst", value=0.4, duration=0.1),
            ),
        )
        script = schedule.to_script()
        assert "schedule.crash('r0', at=0.1)" in script
        assert "schedule.switch_leader('r1', at=0.3, pids=['r1', 'r2'])" in script
        assert "schedule.dup_burst(0.4, at=0.7, duration=0.1)" in script

    def test_with_events_replaces(self):
        schedule = generate_schedule(0, PIDS)
        emptied = schedule.with_events(())
        assert len(emptied) == 0
        assert emptied.seed == schedule.seed

    def test_event_kind_order_is_stable(self):
        # The sort key indexes into EVENT_KINDS; renaming/reordering breaks
        # reproducibility of stored schedules.
        assert EVENT_KINDS == (
            "crash", "recover", "partition", "heal", "leader",
            "loss_burst", "dup_burst", "latency_spike",
            "torn_write", "lost_fsync", "disk_stall", "corrupt_record",
        )


# ------------------------------------------------------------------- storage
class TestStorageSchedule:
    def test_storage_off_by_default(self):
        for seed in range(20):
            schedule = generate_schedule(seed, PIDS)
            assert not any(e.kind in STORAGE_KINDS for e in schedule.events)

    def test_storage_flag_leaves_base_generation_unchanged(self):
        # storage=False must draw the exact same rng sequence as the
        # pre-storage generator; explicit False equals the default.
        for seed in range(10):
            assert generate_schedule(seed, PIDS) == generate_schedule(
                seed, PIDS, storage=False
            )

    def test_storage_kinds_all_reachable(self):
        seen: set[str] = set()
        for seed in range(60):
            schedule = generate_schedule(seed, PIDS, storage=True)
            seen.update(e.kind for e in schedule.events)
        assert seen.issuperset(STORAGE_KINDS)

    def test_storage_schedules_deterministic(self):
        for seed in range(10):
            a = generate_schedule(seed, PIDS, storage=True)
            b = generate_schedule(seed, PIDS, storage=True)
            assert a == b

    def test_torn_write_is_paired_with_a_crash(self):
        for seed in range(60):
            schedule = generate_schedule(seed, PIDS, storage=True)
            for event in schedule.events:
                if event.kind == "torn_write":
                    pid = event.pids[0]
                    assert any(
                        e.kind == "crash" and e.pids == (pid,) and e.at > event.at
                        for e in schedule.events
                    ), f"seed {seed}: torn write on {pid} never lands (no crash)"

    def test_corrupted_pid_never_leads_at_the_end(self):
        # A replica with a rotted record fail-stops on restart; the final
        # stabilizing leader switch must target a clean replica.
        for seed in range(60):
            schedule = generate_schedule(seed, PIDS, storage=True)
            poisoned = {
                e.pids[0] for e in schedule.events if e.kind == "corrupt_record"
            }
            if not poisoned:
                continue
            leaders = [e for e in schedule.events if e.kind == "leader"]
            assert leaders[-1].pids[0] not in poisoned

    def test_storage_events_round_trip(self):
        for seed in range(20):
            schedule = generate_schedule(seed, PIDS, storage=True)
            assert NemesisSchedule.from_dict(schedule.to_dict()) == schedule

    def test_to_script_emits_storage_fault_calls(self):
        events = (
            NemesisEvent(0.1, "torn_write", pids=("r1",)),
            NemesisEvent(0.2, "lost_fsync", pids=("r2",), duration=0.1),
            NemesisEvent(0.3, "disk_stall", pids=("r0",), duration=0.2, value=2e-3),
            NemesisEvent(0.4, "corrupt_record", pids=("r1",), value=0.5),
        )
        script = NemesisSchedule(seed=1, horizon=1.0, events=events).to_script()
        assert "schedule.torn_write('r1', at=0.1)" in script
        assert "schedule.lost_fsync('r2', at=0.2, duration=0.1)" in script
        assert "schedule.disk_stall('r0', at=0.3, duration=0.2, extra=0.002)" in script
        assert "schedule.corrupt_record('r1', at=0.4, fraction=0.5)" in script


# ------------------------------------------------------------------- options
class TestChaosOptions:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            ChaosOptions(protocol="raft")

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ConfigError):
            ChaosOptions(mutation="clock-skew")

    @pytest.mark.parametrize("bad", [{"n_replicas": 1}, {"horizon": 0.0}])
    def test_values_no_schedule_can_be_generated_for_are_rejected(self, bad):
        with pytest.raises(ConfigError):
            ChaosOptions(**bad)

    def test_deadline_is_horizon_plus_grace(self):
        options = ChaosOptions(horizon=2.0, liveness_grace=3.0)
        assert options.deadline == 5.0

    def test_unknown_fsync_mode_rejected(self):
        with pytest.raises(ConfigError):
            ChaosOptions(fsync="eventually")

    def test_storage_faults_require_a_durable_fsync_mode(self):
        with pytest.raises(ConfigError):
            ChaosOptions(storage_faults=True)  # default fsync="async"
        ChaosOptions(storage_faults=True, fsync="sync")

    def test_skip_fsync_mutation_requires_a_durable_fsync_mode(self):
        with pytest.raises(ConfigError):
            ChaosOptions(mutation="skip-fsync")
        ChaosOptions(mutation="skip-fsync", fsync="sync")


# ---------------------------------------------------------------- invariants
def _request(client: str, seq: int, kind=RequestKind.WRITE, **kw) -> ClientRequest:
    return ClientRequest(RequestId(client, seq), kind, op=("put", "x", seq), **kw)


def _proposal(*requests: ClientRequest) -> Proposal:
    return Proposal(requests=tuple(requests), payload=None)


def _snap(pid: str, chosen=(), alive=True, applied=0, frontier=None,
          compacted=0, checkpoint=0, fingerprint="fp",
          intact=True, durable=()):
    return {
        "pid": pid,
        "alive": alive,
        "role": "following",
        "applied": applied,
        "frontier": frontier if frontier is not None else applied,
        "compacted_to": compacted,
        "checkpoint_instance": checkpoint,
        "chosen": tuple(chosen),
        "fingerprint": fingerprint,
        "storage_intact": intact,
        "durable_rids": frozenset(durable),
    }


class _DurClient:
    """request_records()-shaped stand-in for the durability checker."""

    def __init__(self, pid: str, records: list[RequestRecord]) -> None:
        self.pid = pid
        self._records = records

    def request_records(self) -> list[RequestRecord]:
        return self._records


def _acked_write(
    client: str,
    seq: int,
    kind: RequestKind = RequestKind.WRITE,
    status: ReplyStatus = ReplyStatus.OK,
) -> RequestRecord:
    return RequestRecord(
        RequestId(client, seq), kind, sent_at=0.0, completed_at=0.1, status=status
    )


class TestInvariantCheckers:
    def test_log_agreement_clean(self):
        p = _proposal(_request("c0", 0))
        snaps = [_snap("r0", [(1, p)]), _snap("r1", [(1, p)])]
        assert check_log_agreement(snaps) == []

    def test_log_agreement_detects_conflict(self):
        snaps = [
            _snap("r0", [(1, _proposal(_request("c0", 0)))]),
            _snap("r1", [(1, _proposal(_request("c1", 5)))]),
        ]
        (violation,) = check_log_agreement(snaps)
        assert violation.invariant == "log_agreement"
        assert "instance 1" in violation.detail

    def test_log_agreement_includes_crashed_replicas(self):
        # The log is stable storage: a crashed replica's divergent entry
        # still counts.
        snaps = [
            _snap("r0", [(1, _proposal(_request("c0", 0)))]),
            _snap("r1", [(1, _proposal(_request("c1", 5)))], alive=False),
        ]
        assert len(check_log_agreement(snaps)) == 1

    def test_at_most_once_detects_double_commit(self):
        request = _request("c0", 0)
        snaps = [
            _snap("r0", [(1, _proposal(request)), (2, _proposal(request))]),
        ]
        (violation,) = check_at_most_once(snaps)
        assert violation.invariant == "at_most_once"
        assert violation.data["instances"] == [1, 2]

    def test_at_most_once_clean_across_replicas(self):
        request = _request("c0", 0)
        snaps = [
            _snap("r0", [(1, _proposal(request))]),
            _snap("r1", [(1, _proposal(request))]),
        ]
        assert check_at_most_once(snaps) == []

    def test_prefix_consistency_detects_applied_past_frontier(self):
        snaps = [_snap("r0", applied=5, frontier=3)]
        violations = check_prefix_consistency(snaps)
        assert any("out of order" in v.detail for v in violations)

    def test_prefix_consistency_detects_checkpoint_ahead(self):
        snaps = [_snap("r0", applied=2, checkpoint=4)]
        violations = check_prefix_consistency(snaps)
        assert any("checkpoint" in v.detail for v in violations)

    def test_prefix_consistency_detects_stale_chosen(self):
        snaps = [
            _snap("r0", chosen=[(1, _proposal(_request("c0", 0)))],
                  applied=4, compacted=2, checkpoint=2),
        ]
        violations = check_prefix_consistency(snaps)
        assert any("compaction point" in v.detail for v in violations)

    def test_state_convergence_detects_divergence(self):
        snaps = [
            _snap("r0", applied=3, fingerprint="aaa"),
            _snap("r1", applied=3, fingerprint="bbb"),
        ]
        (violation,) = check_state_convergence(snaps)
        assert violation.invariant == "state_convergence"

    def test_state_convergence_ignores_crashed_and_other_prefixes(self):
        snaps = [
            _snap("r0", applied=3, fingerprint="aaa"),
            _snap("r1", applied=3, fingerprint="bbb", alive=False),
            _snap("r2", applied=2, fingerprint="ccc"),
        ]
        assert check_state_convergence(snaps) == []

    def test_txn_atomicity_accepts_whole_bundle(self):
        op0 = _request("c0", 0, kind=RequestKind.TXN_OP, txn="t1", txn_seq=0)
        op1 = _request("c0", 1, kind=RequestKind.TXN_OP, txn="t1", txn_seq=1)
        commit = _request("c0", 2, kind=RequestKind.TXN_COMMIT, txn="t1", txn_seq=2)
        snaps = [_snap("r0", [(1, _proposal(op0, op1, commit))])]
        assert check_txn_atomicity(snaps) == []

    def test_txn_atomicity_detects_torn_suffix(self):
        # Commit claims two ops but the bundle carries one: the §3.6 torn
        # transaction a leader switch could produce.
        op1 = _request("c0", 1, kind=RequestKind.TXN_OP, txn="t1", txn_seq=1)
        commit = _request("c0", 2, kind=RequestKind.TXN_COMMIT, txn="t1", txn_seq=2)
        snaps = [_snap("r0", [(1, _proposal(op1, commit))])]
        violations = check_txn_atomicity(snaps)
        assert len(violations) == 1
        assert violations[0].invariant == "txn_atomicity"

    def test_txn_atomicity_detects_mixed_ids(self):
        op0 = _request("c0", 0, kind=RequestKind.TXN_OP, txn="t1", txn_seq=0)
        commit = _request("c0", 1, kind=RequestKind.TXN_COMMIT, txn="t2", txn_seq=1)
        snaps = [_snap("r0", [(1, _proposal(op0, commit))])]
        assert len(check_txn_atomicity(snaps)) == 1

    def test_acked_durability_clean_when_covered(self):
        client = _DurClient("c0", [_acked_write("c0", 0)])
        snaps = [
            _snap("r0", durable=("c0#0",)),
            _snap("r1", durable=("c0#0",)),
            _snap("r2", intact=False),
        ]
        assert check_acked_durability([client], snaps, majority=2) == []

    def test_acked_durability_detects_lost_write(self):
        client = _DurClient("c0", [_acked_write("c0", 0), _acked_write("c0", 1)])
        snaps = [_snap("r0", durable=("c0#0",)), _snap("r1"), _snap("r2")]
        (violation,) = check_acked_durability([client], snaps, majority=2)
        assert violation.invariant == "acked_durability"
        assert violation.data["rid"] == "c0#1"

    def test_acked_durability_stands_down_below_majority(self):
        # With a minority of intact devices, data loss is outside the
        # fault model's budget: the checker must not cry wolf.
        client = _DurClient("c0", [_acked_write("c0", 0)])
        snaps = [_snap("r0"), _snap("r1", intact=False), _snap("r2", intact=False)]
        assert check_acked_durability([client], snaps, majority=2) == []

    def test_acked_durability_ignores_reads_and_failures(self):
        records = [
            _acked_write("c0", 0, kind=RequestKind.READ),
            RequestRecord(
                RequestId("c0", 1), RequestKind.WRITE, sent_at=0.0
            ),  # never completed
            _acked_write("c0", 2, status=ReplyStatus.ABORTED),
        ]
        snaps = [_snap("r0"), _snap("r1"), _snap("r2")]
        assert check_acked_durability([_DurClient("c0", records)], snaps, 2) == []

    def test_liveness_reports_unfinished_clients(self):
        class FakeClient:
            pid = "c0"
            done = False
            completed_requests = 3

            def request_records(self):
                return []

        (violation,) = check_liveness([FakeClient()], deadline=5.0)
        assert violation.invariant == "liveness"
        assert "c0" in violation.detail

    def test_linearizability_clean_on_empty_history(self):
        class FakeClient:
            records = []

            def request_records(self):
                return []

        assert check_linearizability([FakeClient()], key="x") == []

    def test_violation_to_dict_sorted(self):
        violation = Violation("log_agreement", "boom", data={"b": 1, "a": 2})
        assert list(violation.to_dict()["data"]) == ["a", "b"]
