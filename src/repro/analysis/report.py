"""Paper-vs-measured reporting helpers used by the benchmark harness."""

from __future__ import annotations


def percent_change(baseline: float, value: float) -> float:
    """Signed percent change of ``value`` relative to ``baseline``."""
    if baseline == 0:
        raise ValueError("baseline must be nonzero")
    return (value - baseline) / baseline * 100.0
