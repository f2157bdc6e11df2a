"""Unit tests for state-transfer payloads (§3.3 FULL / DELTA / REPRO / SMR)."""

from __future__ import annotations

import pytest

from repro.core.state import StatePayload, apply_payload, build_payload
from repro.errors import ProtocolError
from repro.services.base import ExecutionContext, ExecutionResult
from repro.services.counter import CounterService
from repro.services.kvstore import KVStoreService
from repro.transport.codec import wire_size
from repro.types import StateTransferMode

import random


def ctx() -> ExecutionContext:
    return ExecutionContext(rng=random.Random(0), now=0.0)


class TestBuildPayload:
    def test_full_snapshots_service(self):
        service = CounterService()
        service.value = 42
        payload = build_payload(StateTransferMode.FULL, service, (ExecutionResult(),))
        assert payload.mode is StateTransferMode.FULL
        assert payload.data == 42

    def test_delta_collects_results(self):
        service = CounterService()
        results = (ExecutionResult(delta=3), ExecutionResult(delta=4))
        payload = build_payload(StateTransferMode.DELTA, service, results)
        assert payload.data == (3, 4)

    def test_repro_collects_results(self):
        service = CounterService()
        results = (ExecutionResult(repro=7),)
        payload = build_payload(StateTransferMode.REPRO, service, results)
        assert payload.data == (7,)

    def test_smr_ships_nothing(self):
        payload = build_payload(StateTransferMode.SMR, CounterService(), ())
        assert payload.data is None


class TestApplyPayload:
    def test_full_restores(self):
        service = CounterService()
        apply_payload(StatePayload(StateTransferMode.FULL, 9), service, (("add", 1),))
        assert service.value == 9

    def test_delta_applies_each(self):
        service = CounterService()
        apply_payload(
            StatePayload(StateTransferMode.DELTA, (3, 4)), service, (None, None)
        )
        assert service.value == 7

    def test_delta_skips_none_entries(self):
        # The commit marker of a transaction bundle contributes delta=None.
        service = CounterService()
        apply_payload(
            StatePayload(StateTransferMode.DELTA, (3, None)), service, (None, None)
        )
        assert service.value == 3

    def test_repro_replays_with_leader_outcome(self):
        service = CounterService()
        apply_payload(
            StatePayload(StateTransferMode.REPRO, (5,)),
            service,
            (("add_random", 1, 10),),
        )
        assert service.value == 5

    def test_repro_skips_commit_marker(self):
        service = CounterService()
        apply_payload(
            StatePayload(StateTransferMode.REPRO, (5, None)),
            service,
            (("add", 5), None),
        )
        assert service.value == 5

    def test_repro_length_mismatch_raises(self):
        service = CounterService()
        with pytest.raises(ProtocolError):
            apply_payload(
                StatePayload(StateTransferMode.REPRO, (5, 6)), service, (("add", 5),)
            )


class TestRoundTrip:
    """build followed by apply must reproduce the leader's state exactly."""

    @pytest.mark.parametrize(
        "mode",
        [StateTransferMode.FULL, StateTransferMode.DELTA, StateTransferMode.REPRO],
    )
    def test_counter_roundtrip(self, mode):
        leader, backup = CounterService(), CounterService()
        op = ("add_random", 1, 100)
        result = leader.execute(op, ctx())
        payload = build_payload(mode, leader, (result,))
        apply_payload(payload, backup, (op,))
        assert backup.value == leader.value

    @pytest.mark.parametrize(
        "mode", [StateTransferMode.FULL, StateTransferMode.DELTA]
    )
    def test_kvstore_roundtrip(self, mode):
        leader, backup = KVStoreService(), KVStoreService()
        ops = [("put", "a", 1), ("put", "b", 2), ("delete", "a")]
        for op in ops:
            result = leader.execute(op, ctx())
            payload = build_payload(mode, leader, (result,))
            apply_payload(payload, backup, (op,))
        assert backup.data == leader.data == {"b": 2}

    def test_wire_size_covers_the_state(self):
        payload = StatePayload(StateTransferMode.FULL, {"key": "x" * 100})
        assert wire_size(payload) > 100

    def test_wire_size_grows_with_state(self):
        small = StatePayload(StateTransferMode.FULL, "x")
        big = StatePayload(StateTransferMode.FULL, "x" * 10_000)
        assert wire_size(big) - wire_size(small) == 9_999
