"""Unit tests for JSONL timeline export/import and report rendering."""

from __future__ import annotations

import json

import pytest

from repro.client.workload import single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.cluster.metrics import collect
from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    message_table,
    per_replica_table,
    phase_table,
    render_report,
)
from repro.obs.timeline import RunExport, load_export, registry_records
from repro.types import RequestKind
from tests.conftest import make_test_profile


def run_cluster(seed: int = 0) -> Cluster:
    spec = ClusterSpec(profile=make_test_profile(), seed=seed)
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
        assert export.skipped == 0
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

    def test_same_seed_exports_the_same_bytes(self, tmp_path):
        paths = [tmp_path / f"run{i}.jsonl" for i in range(2)]
        for path in paths:
            run_cluster().export_timeline(str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

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

    def test_old_export_with_dropped_record_kinds_still_loads(self, tmp_path, capsys):
        """A timeline written before the ``gauge``, ``event`` and ``prof``
        records were dropped loads with those lines skipped and counted,
        one warning, and ``repro report`` still renders it."""
        from repro.cli import main

        lines = [
            {"record": "meta", "seed": 0, "n_replicas": 3, "n_clients": 1,
             "profile": "sysnet", "sim_time": 0.1},
            {"record": "counter", "name": "msg.send.Reply", "value": 4},
            {"record": "gauge", "name": "kernel.vtime", "value": 0.1},
            {"record": "event", "t": 0.0, "kind": "send", "src": "c0",
             "dst": "r0", "type": "ClientRequest"},
            {"record": "prof", "path": ["r0", "execute"], "calls": 4,
             "sim_ns": 0, "host_ns": 1200},
            {"record": "result", "total_requests": 4, "total_messages": 4,
             "total_bytes": 0, "throughput": 40.0},
        ]
        path = tmp_path / "old.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.warns(RuntimeWarning) as caught:
            export = load_export(path)
        assert len(caught) == 1
        assert "skipped 3" in str(caught[0].message)
        assert "unknown record kind 'gauge'" in str(caught[0].message)
        assert export.skipped == 3
        assert export.counter("msg.send.Reply") == 4
        with pytest.warns(RuntimeWarning):
            assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("totals: requests=4 messages=4")

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
        return RunExport(counters=registry.counters(), histograms=registry.histograms())

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


class TestRegistryRecords:
    def test_one_record_per_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.5)
        kinds = sorted(r["record"] for r in registry_records(registry))
        assert kinds == ["counter", "hist"]
