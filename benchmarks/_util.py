"""Shared plumbing for ``bench_figures.py``.

Every table and figure of the paper's §4 and every ablation is one record
of ``repro.experiments``; ``bench_figures.py`` has one case per record, and
:func:`emit` prints the case's tables *and* writes them to
``benchmarks/results/`` so the reproduction record survives pytest's output
capture. Alongside each ``<name>.txt`` block it writes a machine-readable
``BENCH_<name>.json`` so dashboards and regression tooling don't have to
re-parse the text tables.

BENCH documents are **schema 2**: ``{"schema": 2, "name", "text", "data",
"metrics", "meta"}``. ``metrics`` maps metric names to
``{"value", "unit", "direction"}`` entries (the direction inferred from the
name); ``meta`` stamps provenance — commit hash, worker count, host — via
:func:`repro.obs.ledger.collect_meta`. The perf ledger
(``repro perf record`` / ``check``) ingests exactly this shape.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any

from repro.obs.ledger import collect_meta, infer_direction

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_workers() -> int:
    """Worker processes for grid benchmarks (``REPRO_BENCH_WORKERS``).

    Defaults to 1 (serial, in-process) so plain ``pytest benchmarks/``
    stays deterministic and dependency-free. Grid results are identical
    for any worker count — every run's seed is part of its spec.
    """
    return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))


def emit(name: str, text: str, data: Any, metrics: dict[str, tuple[float, str]]) -> None:
    """Print a result block and persist it under benchmarks/results/.

    Writes ``<name>.txt`` (the human-readable block) and a schema-2
    ``BENCH_<name>.json`` (see module docstring). ``metrics`` names the
    scalar measurements the perf ledger should track, each a ``(value,
    unit)``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    summary = {
        "schema": 2,
        "name": name,
        "text": text,
        "data": data,
        "metrics": {
            metric: {"value": value, "unit": unit, "direction": infer_direction(metric)}
            for metric, (value, unit) in sorted(metrics.items())
        },
        "meta": collect_meta(workers=bench_workers()),
    }
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n"
    )
