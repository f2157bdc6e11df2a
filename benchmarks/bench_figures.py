"""§4 of the paper — Sysnet RRT, Figs. 5-8 (with the Berkeley->Princeton and
WAN RRTs), Table 1, Figs. 9a/9b — and the seven ablations behind the claims
of its text: one case per ``repro.experiments`` record.

Each case runs only its record's grid cells at full size, writes the
record's tables to ``benchmarks/results/<stem>.txt`` / ``BENCH_<stem>.json``
(the same rows and numbers EXPERIMENTS.md holds for that figure) and fails
if a paper claim printed under a table is violated. Pick one with
``pytest benchmarks/bench_figures.py -k <stem>``.
"""

from __future__ import annotations

import pytest

from benchmarks._util import bench_workers, emit
from repro.experiments import FIGURES, render_text
from repro.parallel.runner import run_grid


@pytest.mark.benchmark(group="figures")
@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.stem)
def test_figure(once, figure):
    results = once(run_grid, figure.cells(False), workers=bench_workers())
    tables = figure.tables(results)
    emit(
        figure.stem,
        "\n\n".join(render_text(table) for table in tables),
        data=[
            {"title": table.title, "headers": table.headers, "rows": table.rows}
            for table in tables
        ],
        metrics={name: entry for table in tables for name, entry in table.metrics.items()},
    )
    assert figure.check(results) == []
