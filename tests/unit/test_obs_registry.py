"""Unit tests for the metrics registry: instruments, scoping, the null path."""

from __future__ import annotations

import pytest

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)


class TestCounterAndGauge:
    def test_counter_starts_at_zero_and_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestHistogram:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))

    def test_counts_mean_min_max(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 9.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.mean == pytest.approx(3.1)
        assert hist.minimum == 0.5
        assert hist.maximum == 9.0
        # buckets: <=1, <=2, <=4, overflow
        assert hist.counts == [1, 2, 1, 1]

    def test_quantile_empty_is_zero(self):
        assert Histogram((1.0,)).quantile(0.5) == 0.0

    def test_quantile_bounds_validated(self):
        hist = Histogram((1.0,))
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.1)

    def test_quantile_single_value_collapses(self):
        hist = Histogram((1.0, 2.0))
        for _ in range(10):
            hist.observe(1.2)
        assert hist.quantile(0.01) == pytest.approx(1.2)
        assert hist.quantile(0.99) == pytest.approx(1.2)

    def test_quantile_within_bucket_width(self):
        hist = Histogram(tuple(i / 10 for i in range(1, 11)))
        samples = [i / 100 for i in range(100)]
        for s in samples:
            hist.observe(s)
        for q in (0.1, 0.5, 0.9):
            true = samples[int(q * len(samples))]
            assert abs(hist.quantile(q) - true) <= 0.1

    def test_snapshot_round_trip(self):
        hist = Histogram((1e-3, 1e-2, 1e-1))
        for value in (5e-4, 5e-3, 5e-2, 5e-1):
            hist.observe(value)
        clone = Histogram.from_snapshot(hist.snapshot())
        assert clone.bounds == hist.bounds
        assert clone.counts == hist.counts
        assert clone.count == hist.count
        assert clone.mean == pytest.approx(hist.mean)
        assert clone.quantile(0.5) == pytest.approx(hist.quantile(0.5))

    def test_empty_snapshot_round_trip(self):
        clone = Histogram.from_snapshot(Histogram((1.0,)).snapshot())
        assert clone.count == 0
        assert clone.quantile(0.9) == 0.0


class TestMetricsRegistry:
    def test_instruments_cached_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_prefix_queries(self):
        registry = MetricsRegistry()
        registry.counter("msg.send.Reply").inc(3)
        registry.counter("msg.send.Accept").inc(1)
        registry.counter("msg.drop.Reply").inc()
        assert registry.counters("msg.send.") == {
            "msg.send.Accept": 1,
            "msg.send.Reply": 3,
        }
        assert registry.counter_value("msg.drop.Reply") == 1
        assert registry.counter_value("never.created") == 0
        # counter_value never creates the instrument
        assert "never.created" not in registry.counters()

    def test_scope_prefixes_names(self):
        registry = MetricsRegistry()
        scope = registry.scope("r1")
        scope.counter("send.Reply").inc()
        scope.histogram("phase.x").observe(0.001)
        assert registry.counter_value("proc.r1.send.Reply") == 1
        assert registry.histograms("proc.r1.")["proc.r1.phase.x"].count == 1
        assert scope.enabled

    def test_iter_yields_every_name(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.histogram("h")
        assert sorted(registry) == ["c", "h"]

    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))


class TestNullRegistry:
    def test_records_nothing(self):
        registry = NullRegistry()
        registry.counter("a").inc(100)
        registry.histogram("h").observe(1.0)
        assert registry.counters() == {}
        assert registry.histograms() == {}
        assert registry.counter_value("a") == 0

    def test_shared_noop_instruments(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
        assert NULL_REGISTRY.scope("r0") is NULL_REGISTRY.scope("r1")
        assert not NULL_REGISTRY.enabled
        assert not NULL_REGISTRY.scope("r0").enabled

    def test_scope_through_null_registry_records_nothing(self):
        scope = NULL_REGISTRY.scope("r0")
        scope.counter("x").inc()
        scope.histogram("y").observe(1.0)
        assert NULL_REGISTRY.counters() == {}
