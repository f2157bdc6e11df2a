"""Shared plumbing for the benchmark suite.

Each benchmark regenerates one table or figure from the paper's §4
(``bench_figures.py``, from the ``repro.experiments`` records that
EXPERIMENTS.md is also rendered from) or one ablation. The measured
rows/series are printed *and* written to ``benchmarks/results/`` so the
reproduction record survives pytest's output capture. Alongside each
``<name>.txt`` block,
:func:`emit` writes a machine-readable ``BENCH_<name>.json`` summary so
dashboards and regression tooling don't have to re-parse the text tables —
benchmarks pass their structured rows/series via ``data`` and their named
scalar measurements via ``metrics``.

BENCH documents are **schema 2**: ``{"schema": 2, "name", "text", "data",
"metrics", "meta"}``. ``metrics`` maps metric names to
``{"value", "unit", "direction"}`` entries (scalars are normalized, with
the direction inferred from the name); ``meta`` stamps provenance — commit
hash, network profile, protocol, worker count, host — via
:func:`repro.obs.ledger.collect_meta`. The perf ledger
(``repro perf record`` / ``check``) ingests exactly this shape; when the
``REPRO_PERF_LEDGER`` environment variable names a ledger path, emit
appends the metrics there directly so benchmark runs self-record.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_workers() -> int:
    """Worker processes for grid benchmarks (``REPRO_BENCH_WORKERS``).

    Defaults to 1 (serial, in-process) so plain ``pytest benchmarks/``
    stays deterministic and dependency-free. Grid results are identical
    for any worker count — every run's seed is part of its spec.
    """
    return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))


def _normalize_metrics(metrics: dict[str, Any] | None) -> dict[str, Any]:
    from repro.obs.ledger import infer_direction

    normalized: dict[str, Any] = {}
    for name in sorted(metrics or {}):
        entry = metrics[name]
        if isinstance(entry, dict):
            normalized[name] = {
                "value": entry.get("value"),
                "unit": str(entry.get("unit") or ""),
                "direction": entry.get("direction") or infer_direction(name),
            }
        else:
            normalized[name] = {
                "value": entry,
                "unit": "",
                "direction": infer_direction(name),
            }
    return normalized


def emit(
    name: str,
    text: str,
    data: Any = None,
    *,
    metrics: dict[str, Any] | None = None,
    profile: str | None = None,
    protocol: str | None = None,
    workers: int | None = None,
) -> str:
    """Print a result block and persist it under benchmarks/results/.

    Writes ``<name>.txt`` (the human-readable block) and a schema-2
    ``BENCH_<name>.json`` (see module docstring). ``metrics`` names the
    scalar measurements the perf ledger should track; ``profile`` /
    ``protocol`` / ``workers`` feed the provenance stamp. When
    ``REPRO_PERF_LEDGER`` is set and metrics are present, the observations
    are appended to that ledger immediately.
    """
    from repro.obs.ledger import append_records, bench_records, collect_meta

    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n"
    print(banner)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    summary = {
        "schema": 2,
        "name": name,
        "text": text,
        "data": data,
        "metrics": _normalize_metrics(metrics),
        "meta": collect_meta(
            profile=profile,
            protocol=protocol,
            workers=workers if workers is not None else bench_workers(),
        ),
    }
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n"
    )
    ledger = os.environ.get("REPRO_PERF_LEDGER")
    if ledger and summary["metrics"]:
        records, _problems = bench_records(summary, source=name)
        append_records(ledger, records)
    return text
