"""Unit tests for the §3.4 analytic latency model."""

from __future__ import annotations

import pytest

from repro.analysis.model import (
    FailoverInputs,
    LatencyModelInputs,
    basic_rrt,
    detection_window,
    original_rrt,
    ready_window,
    retransmit_window,
    stall_windows,
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


class TestFailoverStall:
    P = FailoverInputs(
        heartbeat_interval=0.05, client_timeout=0.05, quorum_round=1e-3,
    )

    def test_detection_phase_follows_the_last_heartbeat(self):
        # A crash on a heartbeat instant loses that beat; one just after it
        # does not, and detection moves a whole interval later. Either way
        # the leader is suspected one missed heartbeat (2h) after its last.
        assert detection_window(self.P, 1.0) == pytest.approx((1.05, 1.05))
        assert detection_window(self.P, 1.01) == pytest.approx((1.10, 1.10))
        lo, hi = ready_window(self.P, 1.0)
        assert (lo, hi) == pytest.approx((1.05, 1.052))

    def test_retransmits_back_off_with_jitter_and_cap(self):
        assert retransmit_window(self.P, 0) == (0, 0)
        assert retransmit_window(self.P, 3) == pytest.approx((0.35, 0.385))
        capped = FailoverInputs(0.05, 0.05, 1e-3, timeout_cap=0.08)
        assert retransmit_window(capped, 3)[0] == pytest.approx(0.05 + 0.08 + 0.08)

    def test_held_write_completes_once_the_new_leader_is_ready(self):
        assert stall_windows(self.P, 0.99, 1.0) == {
            "held": pytest.approx((1, 1, 0.06, 0.062))
        }

    def test_ambiguous_retransmit_count_is_a_range(self):
        # Sent so that its first retransmit, at 50-55 ms, may land just
        # before or after the reply at 52-54 ms.
        assert stall_windows(self.P, 0.998, 1.0) == {
            "held": pytest.approx((0, 1, 0.052, 0.054))
        }
        # A later send leaves the first retransmit surely after the reply.
        assert stall_windows(self.P, 1.01, 1.0)["held"][:2] == (0, 0)

    def test_heartbeat_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            FailoverInputs(0.0, 0.05, 1e-3)


class TestReport:
    def test_percent_change(self):
        assert percent_change(100.0, 122.0) == pytest.approx(22.0)
        assert percent_change(100.0, 78.0) == pytest.approx(-22.0)
        with pytest.raises(ValueError):
            percent_change(0.0, 1.0)
