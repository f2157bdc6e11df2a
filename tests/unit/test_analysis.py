"""Unit tests for the §3.4 analytic latency model."""

from __future__ import annotations

import pytest

from repro.analysis.model import (
    LatencyModelInputs,
    basic_rrt,
    original_rrt,
    tpaxos_trt,
    unoptimized_trt,
    xpaxos_rrt,
)
from repro.analysis.report import percent_change


class TestModel:
    def test_paper_formulas(self):
        p = LatencyModelInputs(client_replica=10.0, replica_replica=2.0, execute=1.0)
        assert original_rrt(p) == pytest.approx(21.0)       # 2M + E
        assert xpaxos_rrt(p) == pytest.approx(22.0)         # 2M + max(E, m)
        assert basic_rrt(p) == pytest.approx(25.0)          # 2M + E + 2m

    def test_xpaxos_max_of_e_and_m(self):
        slow_exec = LatencyModelInputs(10.0, 2.0, execute=5.0)
        assert xpaxos_rrt(slow_exec) == pytest.approx(25.0)  # E dominates m

    def test_xpaxos_never_slower_than_basic(self):
        for m in (0.0, 0.5, 3.0):
            for e in (0.0, 1.0, 10.0):
                p = LatencyModelInputs(10.0, m, e)
                assert xpaxos_rrt(p) <= basic_rrt(p)

    def test_xpaxos_gain_vanishes_when_m_negligible(self):
        # The Berkeley->Princeton observation: m << M collapses the curves.
        p = LatencyModelInputs(45.9e-3, 0.5e-3)
        assert xpaxos_rrt(p) == pytest.approx(original_rrt(p), rel=0.02)
        assert basic_rrt(p) == pytest.approx(original_rrt(p), rel=0.03)

    def test_sysnet_calibration_matches_paper(self):
        # M = 84us, m = 70us reproduce the paper's RRTs (±CPU costs).
        p = LatencyModelInputs(client_replica=84e-6, replica_replica=70e-6)
        assert original_rrt(p) == pytest.approx(0.181e-3, abs=0.02e-3)
        assert xpaxos_rrt(p) == pytest.approx(0.263e-3, abs=0.03e-3)
        assert basic_rrt(p) == pytest.approx(0.338e-3, abs=0.04e-3)

    def test_tpaxos_trt_beats_unoptimized(self):
        p = LatencyModelInputs(84e-6, 70e-6)
        assert tpaxos_trt(p, 3) < unoptimized_trt(p, reads=2, writes=1)
        assert tpaxos_trt(p, 5) < unoptimized_trt(p, reads=0, writes=5)

    def test_table1_shape(self):
        # The model reproduces Table 1's ordering and rough magnitudes.
        p = LatencyModelInputs(84e-6, 70e-6)
        rw3 = unoptimized_trt(p, reads=2, writes=1)
        w3 = unoptimized_trt(p, reads=0, writes=3)
        opt3 = tpaxos_trt(p, 3)
        assert opt3 < rw3 < w3
        assert rw3 == pytest.approx(1.17e-3, rel=0.1)
        assert w3 == pytest.approx(1.29e-3, rel=0.1)
        assert opt3 == pytest.approx(0.85e-3, rel=0.1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            LatencyModelInputs(-1.0, 0.0)


class TestReport:
    def test_percent_change(self):
        assert percent_change(100.0, 122.0) == pytest.approx(22.0)
        assert percent_change(100.0, 78.0) == pytest.approx(-22.0)
        with pytest.raises(ValueError):
            percent_change(0.0, 1.0)
