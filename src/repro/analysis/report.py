"""Paper-vs-measured reporting helpers used by the benchmark harness."""

from __future__ import annotations

from collections.abc import Sequence

from repro.util.tables import format_table


def percent_change(baseline: float, value: float) -> float:
    """Signed percent change of ``value`` relative to ``baseline``."""
    if baseline == 0:
        raise ValueError("baseline must be nonzero")
    return (value - baseline) / baseline * 100.0


def comparison_table(
    title: str,
    rows: Sequence[tuple[str, float, float]],
    unit: str = "ms",
    scale: float = 1e3,
) -> str:
    """Render rows of ``(label, paper_value, measured_value)``.

    Values are in seconds and scaled for display (default to ms). The delta
    column shows measured deviation from the paper number.
    """
    table_rows = []
    for label, paper, measured in rows:
        delta = percent_change(paper, measured)
        table_rows.append(
            [
                label,
                f"{paper * scale:.3f}",
                f"{measured * scale:.3f}",
                f"{delta:+.1f}%",
            ]
        )
    header = ["metric", f"paper ({unit})", f"measured ({unit})", "delta"]
    return f"{title}\n{format_table(header, table_rows)}"
