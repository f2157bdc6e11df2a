"""Unit tests for stats and table utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.stats import confidence_interval, summarize
from repro.util.tables import format_table


class TestStats:
    def test_summarize_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.p50 == pytest.approx(2.0)

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ci_zero_for_tiny_samples(self):
        assert confidence_interval([1.0]) == 0.0
        assert confidence_interval([]) == 0.0

    def test_ci_zero_for_constant_samples(self):
        assert confidence_interval([2.0] * 10) == 0.0

    def test_ci_99_matches_t_distribution(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 1.0, size=200).tolist()
        ci = confidence_interval(samples, confidence=0.99)
        # For n=200, t_crit ~= 2.6; sem ~= 1/sqrt(200).
        assert ci == pytest.approx(2.6 / np.sqrt(200), rel=0.15)

    def test_ci_bounds(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.ci_lo < s.mean < s.ci_hi
        assert s.ci_hi - s.mean == pytest.approx(s.ci99)

    def test_wider_confidence_wider_interval(self):
        samples = list(np.linspace(0, 1, 50))
        assert confidence_interval(samples, 0.99) > confidence_interval(samples, 0.90)

    def test_single_sample_summary(self):
        s = summarize([5.0])
        assert s.mean == 5.0 and s.std == 0.0 and s.ci99 == 0.0


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert len(lines) == 4
