"""Unit tests for the perf-regression ledger: ingest, trends, detection.

The regression detector is exercised on synthetic histories — flat,
noisy-flat, step regression, gradual drift — because those are the shapes
CI actually sees; the thresholds asserted here are the ones the CI gate
(`repro perf check`) runs with.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.ledger import (
    LedgerRecord,
    append_records,
    bench_records,
    collect_meta,
    infer_direction,
    load_ledger,
    trends,
)


def series(values, metric="wall_s", direction="lower", bench="bench"):
    return [
        LedgerRecord(bench=bench, metric=metric, value=v, direction=direction)
        for v in values
    ]


def one_trend(records, **kwargs):
    rows = trends(records, **kwargs)
    assert len(rows) == 1
    return rows[0]


class TestDirectionInference:
    @pytest.mark.parametrize("name", [
        "throughput", "read_throughput_16c", "txn_per_s", "speedup",
        "ok_rate", "optimized_txn_s_16c",
    ])
    def test_higher_is_better_names(self, name):
        assert infer_direction(name) == "higher"

    @pytest.mark.parametrize("name", [
        "wall_s", "rrt_write_s", "p99_latency_ms", "payload_bytes",
    ])
    def test_lower_is_better_names(self, name):
        assert infer_direction(name) == "lower"


class TestStatistics:
    """A trend is judged against the history's median and scaled MAD; the
    latest observation is not part of the history."""

    def test_median(self):
        assert one_trend(series([3.0, 1.0, 2.0, 1.0, 99.0])).center == 1.5
        assert one_trend(series([3.0, 1.0, 2.0, 99.0])).center == 2.0

    def test_mad(self):
        assert one_trend(series([1.0, 1.0, 1.0, 5.0])).spread == 0.0
        t = one_trend(series([1.0, 2.0, 3.0, 4.0, 5.0, 99.0]))
        assert t.spread == pytest.approx(1.4826 * 1.0)


class TestRegressionDetection:
    def test_flat_history_is_ok(self):
        t = one_trend(series([10.0] * 8))
        assert t.status == "ok"
        assert t.center == 10.0

    def test_noisy_flat_history_is_ok(self):
        values = [10.0, 10.3, 9.8, 10.1, 9.9, 10.2, 10.05]
        assert one_trend(series(values)).status == "ok"

    def test_step_regression_caught(self):
        # A 30% throughput drop on an otherwise flat series must fail.
        values = [100.0, 101.0, 99.5, 100.5, 100.2, 70.0]
        t = one_trend(series(values, metric="throughput", direction="higher"))
        assert t.status == "regression"
        assert t.delta_pct < -25

    def test_step_regression_lower_is_better(self):
        # Wall time jumping 30% is a regression too (direction-aware).
        values = [10.0, 10.1, 9.9, 10.0, 13.0]
        assert one_trend(series(values)).status == "regression"

    def test_improvement_not_flagged(self):
        values = [10.0, 10.1, 9.9, 10.0, 6.0]
        assert one_trend(series(values)).status == "improved"

    def test_gentle_drift_within_band_passes(self):
        # 1% per observation stays inside the 10% relative floor.
        values = [10.0 * (1.01 ** i) for i in range(6)]
        assert one_trend(series(values)).status == "ok"

    def test_drift_off_flat_baseline_caught(self):
        # A creeping slowdown after a long flat stretch: the median stays
        # anchored at the baseline, so the cumulative drift crosses the
        # band even though each single step is small.
        values = [10.0] * 6 + [10.8, 11.7, 12.6]
        assert one_trend(series(values)).status == "regression"

    def test_insufficient_history_never_fails(self):
        for n in (1, 2, 3):
            t = one_trend(series([100.0] * (n - 1) + [1.0]))
            assert t.status == "insufficient"

    def test_min_history_boundary(self):
        # min_history=3 -> the 4th observation is the first one judged.
        t = one_trend(series([10.0, 10.0, 10.0, 20.0]))
        assert t.status == "regression"

    def test_noise_widens_the_band(self):
        # The same absolute step passes when the history itself is noisy.
        noisy = [10.0, 14.0, 7.0, 13.0, 8.0, 12.0, 14.5]
        assert one_trend(series(noisy)).status == "ok"

    def test_series_keyed_by_bench_and_metric(self):
        records = series([10.0] * 5, bench="a") + series([9.0] * 2, bench="b")
        rows = trends(records)
        by_bench = {t.bench: t for t in rows}
        assert by_bench["a"].status == "ok"
        assert by_bench["b"].status == "insufficient"

    def test_zero_spread_uses_relative_floor(self):
        # Perfectly flat history: band = rel_floor * median, not zero.
        t = one_trend(series([10.0, 10.0, 10.0, 10.9]))
        assert t.status == "ok"  # +9% < 10% floor
        t = one_trend(series([10.0, 10.0, 10.0, 11.2]))
        assert t.status == "regression"


class TestLedgerIO:
    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        records = series([1.0, 2.0]) + [
            LedgerRecord(bench="b", metric="throughput", value=100.0,
                         unit="req/s", direction="higher",
                         meta={"commit": "abc123"}),
        ]
        assert append_records(path, records) == 3
        loaded, skipped = load_ledger(path)
        assert skipped == 0
        assert [r.value for r in loaded] == [1.0, 2.0, 100.0]
        assert loaded[2].meta["commit"] == "abc123"
        assert loaded[2].direction == "higher"

    def test_missing_ledger_is_empty(self, tmp_path):
        records, skipped = load_ledger(tmp_path / "absent.jsonl")
        assert records == [] and skipped == 0

    def test_malformed_lines_warn_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_records(path, series([1.0]))
        with path.open("a") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps({"schema": 99, "bench": "x"}) + "\n")
            fh.write(json.dumps({"schema": 1, "bench": "x"}) + "\n")
        with pytest.warns(RuntimeWarning, match="skipped 3 ledger line"):
            records, skipped = load_ledger(path)
        assert len(records) == 1 and skipped == 3

    def test_appends_accumulate(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_records(path, series([1.0]))
        append_records(path, series([2.0]))
        records, _ = load_ledger(path)
        assert [r.value for r in records] == [1.0, 2.0]

    def test_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_records(path, series([1.0]))
        line = path.read_text().strip()
        keys = list(json.loads(line))
        assert keys == sorted(keys)


class TestBenchIngest:
    def doc(self, **overrides):
        base = {
            "schema": 2,
            "name": "rrt_sysnet",
            "text": "...",
            "data": None,
            "metrics": {
                "rrt_write_s": {"value": 3.4e-4, "unit": "s",
                                "direction": "lower"},
                "total_wall_s": {"value": 1.5, "unit": "s"},
            },
            "meta": {"commit": "abc123", "profile": "sysnet"},
        }
        base.update(overrides)
        return base

    def test_schema2_metrics_flattened(self):
        records, warnings = bench_records(self.doc(), source="x.json")
        assert warnings == []
        by_metric = {r.metric: r for r in records}
        assert by_metric["rrt_write_s"].value == pytest.approx(3.4e-4)
        assert by_metric["rrt_write_s"].unit == "s"
        assert by_metric["total_wall_s"].direction == "lower"  # inferred
        assert all(r.bench == "rrt_sysnet" for r in records)
        assert all(r.meta["commit"] == "abc123" for r in records)

    def test_legacy_document_warn_skipped(self):
        legacy = {"name": "old", "text": "...", "data": None}
        records, warnings = bench_records(legacy, source="old.json")
        assert records == []
        assert warnings == ["old.json: not a schema-2 BENCH document; skipped"]

    def test_non_numeric_metric_skipped(self):
        doc = self.doc(metrics={"bad": {"value": "fast"}, "bare": 2.0,
                                "good": {"value": 1.0}})
        records, warnings = bench_records(doc)
        assert [r.metric for r in records] == ["good"]
        assert len(warnings) == 2

    def test_missing_metrics_section(self):
        records, warnings = bench_records(self.doc(metrics={}))
        assert records == [] and len(warnings) == 1


class TestCollectMeta:
    def test_env_commit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "deadbeef")
        meta = collect_meta(workers=4)
        assert meta["commit"] == "deadbeef"
        assert meta["workers"] == 4
        assert "python" in meta["host"]
        assert meta["recorded_at"]
