"""Unit tests for JSONL timeline export/import and report rendering."""

from __future__ import annotations

import json

import pytest

from repro.client.workload import single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.cluster.metrics import collect
from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    compare_table,
    export_from_registry,
    message_table,
    per_replica_table,
    phase_table,
    render_comparison,
    render_report,
)
from repro.obs.timeline import RunExport, load_export, registry_records
from repro.types import RequestKind
from tests.conftest import make_test_profile


def run_cluster(seed: int = 0, trace: bool = True) -> Cluster:
    spec = ClusterSpec(profile=make_test_profile(), seed=seed, trace=trace)
    return Cluster(spec, [single_kind_steps(RequestKind.WRITE, 4)]).run()


class TestExportRoundTrip:
    def test_export_and_load(self, tmp_path):
        cluster = run_cluster()
        path = cluster.export_timeline(str(tmp_path / "run.jsonl"))
        export = load_export(path)

        assert export.meta["seed"] == 0
        assert export.meta["n_replicas"] == 3
        assert export.meta["profile"] == "test"
        # Counters survive the round trip exactly.
        assert export.counters == cluster.metrics.counters()
        # Every trace event made it across, payloads reduced to type names.
        assert len(export.events) == len(cluster.trace)
        assert all(isinstance(e["type"], str) for e in export.events)
        # The result record is the run's one serialisation (what a sweep
        # task returns for it), and the report's last line reads it.
        assert export.result == {"record": "result", **collect(cluster).to_dict()}
        assert export.result["n_clients"] == 1 and export.result["rrt"]["n"] == 4
        assert render_report(export).splitlines()[-1].startswith(
            "totals: requests=4 messages="
        )
        assert export.result["total_requests"] == 4
        assert export.result["total_messages"] == export.counter("msg.send.ClientRequest") + sum(
            v for k, v in export.counters.items()
            if k.startswith("msg.send.") and k != "msg.send.ClientRequest"
        )

    def test_histograms_survive_round_trip(self, tmp_path):
        cluster = run_cluster()
        export = load_export(cluster.export_timeline(str(tmp_path / "run.jsonl")))
        live = cluster.metrics.histograms()
        assert set(export.histograms) == set(live)
        for name, hist in export.histograms.items():
            assert hist.count == live[name].count
            assert hist.quantile(0.5) == pytest.approx(live[name].quantile(0.5))

    def test_include_events_false_drops_events(self, tmp_path):
        cluster = run_cluster()
        export = load_export(
            cluster.export_timeline(str(tmp_path / "run.jsonl"), include_events=False)
        )
        assert export.events == []
        assert export.counters  # metrics still exported

    def test_export_without_trace(self, tmp_path):
        cluster = run_cluster(trace=False)
        export = load_export(cluster.export_timeline(str(tmp_path / "run.jsonl")))
        assert export.events == []

    def test_message_types_unions_all_counter_families(self):
        export = RunExport()
        export.counters = {
            "msg.send.A": 1,
            "msg.deliver.B": 1,
            "msg.drop.C": 1,
            "proc.r0.send.A": 1,
        }
        assert export.message_types() == ["A", "B", "C"]

    def test_load_skips_bad_json_with_warning(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "meta"}\nnot json\n')
        with pytest.warns(RuntimeWarning, match="skipped 1 unparseable"):
            export = load_export(path)
        assert export.skipped == 1
        assert export.meta == {"record": "meta"}

    def test_load_skips_unknown_record_with_warning(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"record": "mystery"}) + "\n")
        with pytest.warns(RuntimeWarning, match="unknown record kind 'mystery'"):
            export = load_export(path)
        assert export.skipped == 1

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "sparse.jsonl"
        path.write_text('\n{"record": "counter", "name": "a", "value": 2}\n\n')
        assert load_export(path).counter("a") == 2


class TestReportRendering:
    def make_export(self) -> RunExport:
        registry = MetricsRegistry()
        registry.counter("msg.send.Reply").inc(10)
        registry.counter("msg.send_bytes.Reply").inc(1500)
        registry.counter("msg.deliver.Reply").inc(9)
        registry.counter("msg.drop.Reply").inc(1)
        registry.counter("proc.r0.send.Reply").inc(10)
        registry.scope("r0").histogram("phase.accept_chosen").observe(2e-3)
        return export_from_registry(registry)

    def test_message_table_has_counts_and_total(self):
        table = message_table(self.make_export())
        lines = table.splitlines()
        reply_row = next(line for line in lines if line.startswith("Reply"))
        assert reply_row.split() == ["Reply", "10", "9", "1", "1500", "150"]
        assert any(line.startswith("TOTAL") for line in lines)

    def test_per_replica_table(self):
        table = per_replica_table(self.make_export())
        assert "r0" in table and "Reply" in table

    def test_per_replica_table_empty(self):
        assert "no per-process counters" in per_replica_table(RunExport())

    def test_phase_table(self):
        table = phase_table(self.make_export())
        assert "r0.phase.accept_chosen" in table
        assert "2.000" in table  # 2ms mean

    def test_phase_table_empty(self):
        assert "no histograms" in phase_table(RunExport())

    def test_render_report_composes_blocks(self):
        report = render_report(self.make_export())
        assert "Per-message-type traffic" in report
        assert "Messages sent per process" in report
        assert "Phase latencies" in report

    def test_compare_table_deltas(self):
        a, b = self.make_export(), self.make_export()
        b.counters["msg.send.Reply"] = 15
        b.counters["msg.send.Extra"] = 3
        table = compare_table(a, b)
        assert "+50.0%" in table
        assert "new" in table

    def test_render_comparison_from_real_runs(self, tmp_path):
        paths = []
        for seed in (1, 2):
            cluster = run_cluster(seed=seed, trace=False)
            paths.append(cluster.export_timeline(str(tmp_path / f"run{seed}.jsonl")))
        text = render_comparison(load_export(paths[0]), load_export(paths[1]))
        assert "AcceptBatch" in text
        assert "[A] run: seed=1" in text
        assert "[B] run: seed=2" in text


class TestRegistryRecords:
    def test_one_record_per_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(0.5)
        kinds = sorted(r["record"] for r in registry_records(registry))
        assert kinds == ["counter", "gauge", "hist"]
