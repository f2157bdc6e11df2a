"""State-transfer modes (§3.3): equivalence and size characteristics."""

from __future__ import annotations

import pytest

from repro.client.workload import paper_txn_steps, single_kind_steps
from repro.core.messages import AcceptBatch
from repro.services.kvstore import KVStoreService
from repro.services.noop import NoopService
from repro.transport.codec import wire_size
from repro.types import RequestKind, StateTransferMode
from tests.integration.util import build_cluster, converged_fingerprints

MODES = [StateTransferMode.FULL, StateTransferMode.DELTA, StateTransferMode.REPRO]


class TestEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_kvstore_final_state_identical(self, mode):
        steps = single_kind_steps(
            RequestKind.WRITE, 20, op=lambda i: ("put", i % 5, i)
        )
        cluster = build_cluster(
            [steps], service_factory=KVStoreService, state_mode=mode
        ).run()
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1
        expected = tuple(sorted({i % 5: 15 + i % 5 for i in range(5)}.items(), key=repr))
        assert set(prints.values()) == {expected}

    @pytest.mark.parametrize("mode", MODES)
    def test_transactions_work_under_all_modes(self, mode):
        cluster = build_cluster(
            [paper_txn_steps("optimized", 3, 5)], state_mode=mode
        ).run()
        assert cluster.clients[0].completed_steps == 5
        prints = converged_fingerprints(cluster)
        assert set(prints.values()) == {15}  # 5 txns x 3 writes


class TestPayloadSizes:
    def payload_bytes(self, sent, mode, state_size):
        first = len(sent)
        build_cluster(
            [single_kind_steps(RequestKind.WRITE, 5)],
            service_factory=lambda: NoopService(state_size=state_size),
            state_mode=mode,
        ).run()
        sizes = [
            wire_size(e.msg.entries[0][1].payload)
            for e in sent[first:]
            if isinstance(e.msg, AcceptBatch) and e.msg.entries
        ]
        assert sizes
        return sum(sizes) / len(sizes)

    def test_full_mode_grows_with_state(self, sent):
        small = self.payload_bytes(sent, StateTransferMode.FULL, state_size=10)
        large = self.payload_bytes(sent, StateTransferMode.FULL, state_size=100_000)
        assert large > 50 * small

    def test_delta_mode_independent_of_state_size(self, sent):
        small = self.payload_bytes(sent, StateTransferMode.DELTA, state_size=10)
        large = self.payload_bytes(sent, StateTransferMode.DELTA, state_size=100_000)
        assert large == pytest.approx(small, rel=0.1)

    def test_repro_mode_independent_of_state_size(self, sent):
        small = self.payload_bytes(sent, StateTransferMode.REPRO, state_size=10)
        large = self.payload_bytes(sent, StateTransferMode.REPRO, state_size=100_000)
        assert large == pytest.approx(small, rel=0.1)

    def test_delta_smaller_than_full_for_big_state(self, sent):
        full = self.payload_bytes(sent, StateTransferMode.FULL, state_size=100_000)
        delta = self.payload_bytes(sent, StateTransferMode.DELTA, state_size=100_000)
        assert delta < full / 100
