"""Analysis: the §3.4 analytic latency model and paper-vs-measured reports."""

from repro.analysis.linearizability import Op, check_register, history_from_clients
from repro.analysis.model import (
    LatencyModelInputs,
    basic_rrt,
    original_rrt,
    tpaxos_trt,
    unoptimized_trt,
    xpaxos_rrt,
)
from repro.analysis.queueing import ClosedSystem, sysnet_model
from repro.analysis.report import percent_change

__all__ = [
    "ClosedSystem",
    "LatencyModelInputs",
    "Op",
    "basic_rrt",
    "check_register",
    "history_from_clients",
    "original_rrt",
    "percent_change",
    "sysnet_model",
    "tpaxos_trt",
    "unoptimized_trt",
    "xpaxos_rrt",
]
