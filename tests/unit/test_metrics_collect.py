"""Edge-case tests for :func:`repro.cluster.metrics.collect`.

``collect`` only reads ``cluster.clients`` and ``cluster.metrics``, so the
edge cases (zero clients, nothing finished, mixed abort outcomes) are
exercised against hand-built clients rather than full simulated runs.
"""

from __future__ import annotations

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.client.client import Client, RequestRecord, StepRecord
from repro.client.workload import single_kind_steps
from repro.cluster.metrics import collect
from repro.core.requests import RequestId
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.types import ReplyStatus, RequestKind


def make_client(pid: str = "c0", steps=()) -> Client:
    return Client(pid, replicas=("r0",), steps=list(steps))


def fake_cluster(clients, registry=None) -> SimpleNamespace:
    return SimpleNamespace(
        clients=list(clients),
        metrics=registry if registry is not None else NULL_REGISTRY,
    )


def completed_request(client: str, seq: int, sent: float, done: float) -> RequestRecord:
    record = RequestRecord(
        rid=RequestId(client, seq), kind=RequestKind.WRITE, sent_at=sent
    )
    record.completed_at = done
    record.status = ReplyStatus.OK
    return record


class TestCollectEdgeCases:
    def test_zero_clients(self):
        result = collect(fake_cluster([]))
        assert result.n_clients == 0
        assert result.duration == 0.0
        assert result.total_requests == 0
        assert result.total_steps == 0
        assert result.aborted_steps == 0
        assert result.rrt is None and result.trt is None
        assert result.throughput == 0.0
        assert result.step_throughput == 0.0
        assert result.to_dict()["rrt"] is None and result.to_dict()["trt"] is None

    def test_client_that_never_finished(self):
        # Started but no request ever completed: duration stays 0 because
        # there is no finish timestamp, and no summary is produced.
        client = make_client(steps=single_kind_steps(RequestKind.WRITE, 3))
        client.started_at = 1.0
        client.records.append(StepRecord(label="w", started_at=1.0))
        client.records[-1].requests.append(
            RequestRecord(rid=RequestId("c0", 0), kind=RequestKind.WRITE, sent_at=1.0)
        )
        result = collect(fake_cluster([client]))
        assert result.duration == 0.0
        assert result.total_requests == 0
        assert result.rrt is None
        assert result.throughput == 0.0  # duration == 0 must not divide

    def test_mixed_aborted_and_completed_steps(self):
        client = make_client()
        ok = StepRecord(label="ok", started_at=0.0)
        ok.completed_at = 0.5
        ok.requests.append(completed_request("c0", 0, 0.0, 0.5))
        aborted = StepRecord(label="dead", started_at=0.5)
        aborted.completed_at = 0.7
        aborted.aborted = True
        aborted.requests.append(completed_request("c0", 1, 0.5, 0.7))
        client.records.extend([ok, aborted])
        client.started_at = 0.0
        client.finished_at = 0.7

        result = collect(fake_cluster([client]))
        assert result.n_clients == 1
        assert result.duration == pytest.approx(0.7)
        assert result.total_requests == 2  # both requests got replies
        assert result.total_steps == 1  # aborted steps don't count as completed
        assert result.aborted_steps == 1
        assert result.trt is not None
        assert result.trt.mean == pytest.approx(0.5)  # aborted TRT excluded
        # The JSON-ready form: every aggregate, summaries in full, and a
        # scenario's own measurements beside them.
        as_dict = replace(result, extra={"fsyncs": 3}).to_dict()
        assert as_dict["aborted_steps"] == 1 and as_dict["total_retransmits"] == 0
        assert as_dict["step_throughput"] == pytest.approx(1 / 0.7)
        assert as_dict["trt"]["mean"] == pytest.approx(0.5) and as_dict["trt"]["n"] == 1
        assert as_dict["fsyncs"] == 3
        assert json.loads(json.dumps(as_dict)) == as_dict

    def test_retransmits_summed_across_clients(self):
        clients = []
        for i, retransmits in enumerate((2, 3)):
            client = make_client(pid=f"c{i}")
            step = StepRecord(label="w", started_at=0.0)
            step.completed_at = 1.0
            request = completed_request(f"c{i}", 0, 0.0, 1.0)
            request.retransmits = retransmits
            step.requests.append(request)
            client.records.append(step)
            client.started_at, client.finished_at = 0.0, 1.0
            clients.append(client)
        assert collect(fake_cluster(clients)).total_retransmits == 5

    def test_message_totals_read_from_registry(self):
        registry = MetricsRegistry()
        registry.counter("msg.send.Reply").inc(7)
        registry.counter("msg.send.AcceptBatch").inc(9)
        registry.counter("msg.send_bytes.Reply").inc(700)
        registry.counter("msg.drop.Reply").inc(2)
        result = collect(fake_cluster([], registry))
        assert result.total_messages == 16
        assert result.total_dropped == 2
        assert result.total_bytes == 700
        assert result.messages_by_type == (("AcceptBatch", 9), ("Reply", 7))

    def test_null_registry_leaves_zeros(self):
        result = collect(fake_cluster([]))
        assert result.total_messages == 0
        assert result.total_bytes == 0
        assert result.messages_by_type == ()

    def test_describe_includes_message_line_only_when_counted(self):
        registry = MetricsRegistry()
        registry.counter("msg.send.Reply").inc(4)
        with_messages = collect(fake_cluster([], registry))
        assert "messages=4" in with_messages.describe()
        without = collect(fake_cluster([]))
        assert "messages=" not in without.describe()
