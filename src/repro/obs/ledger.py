"""Append-only perf ledger: BENCH records in, trends and regression flags out.

The benchmark suite writes schema-2 ``BENCH_<name>.json`` summaries through
:func:`benchmarks._util.emit`; each carries a ``metrics`` section (named
scalar measurements) and a ``meta`` stamp (commit, worker count, host).
``repro perf record`` flattens those into one JSONL ledger — one line per
(bench, metric) observation — and ``repro perf trend`` / ``repro perf check``
analyze the series:

* the **noise band** of a series is ``max(k * 1.4826 * MAD, floor * |median|)``
  over its history (all but the latest observation) — robust to outliers,
  never tighter than a relative floor so short flat histories don't
  produce zero-width bands;
* the latest observation is a **regression** when it falls outside the
  band in the metric's bad direction (``direction`` is stored per record
  and inferred from the metric name when a benchmark doesn't say).

Like the timeline loader, ingest is lenient: malformed or legacy (schema-1)
records are skipped and counted with one summary warning, so an old
``benchmarks/results/`` directory doesn't wedge the ledger.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Ledger line schema version.
SCHEMA_VERSION = 1

#: Default ledger location (append-only JSONL, one observation per line).
DEFAULT_LEDGER = Path("benchmarks") / "results" / "perf-ledger.jsonl"

#: Metric-name fragments that mean "bigger is better".
_HIGHER_HINTS = ("throughput", "per_s", "speedup", "rate", "ops", "gain", "txn_s")

__all__ = [
    "DEFAULT_LEDGER",
    "LedgerRecord",
    "SCHEMA_VERSION",
    "Trend",
    "append_records",
    "bench_records",
    "collect_meta",
    "infer_direction",
    "load_ledger",
    "mad",
    "median",
    "trends",
]


def infer_direction(metric: str) -> str:
    """``"higher"`` or ``"lower"`` (is better), inferred from the name.

    Throughput-ish names are higher-is-better; everything else (latencies,
    wall times, byte counts — the common case in this suite) is lower.
    """
    lowered = metric.lower()
    if any(hint in lowered for hint in _HIGHER_HINTS):
        return "higher"
    return "lower"


@dataclass(frozen=True)
class LedgerRecord:
    """One observation of one metric of one benchmark."""

    bench: str
    metric: str
    value: float
    unit: str = ""
    direction: str = "lower"
    meta: dict[str, Any] = field(default_factory=dict)

    def to_line(self) -> str:
        record = {
            "schema": SCHEMA_VERSION,
            "bench": self.bench,
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "meta": self.meta,
        }
        return json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)


def _parse_record(obj: Any) -> LedgerRecord | str:
    """A :class:`LedgerRecord`, or an error string for warn-skip."""
    if not isinstance(obj, dict):
        return "not an object"
    if obj.get("schema") != SCHEMA_VERSION:
        return f"unsupported ledger schema {obj.get('schema')!r}"
    bench = obj.get("bench")
    metric = obj.get("metric")
    value = obj.get("value")
    if not isinstance(bench, str) or not bench:
        return "missing 'bench'"
    if not isinstance(metric, str) or not metric:
        return "missing 'metric'"
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return f"non-numeric value {value!r}"
    direction = obj.get("direction") or infer_direction(metric)
    if direction not in ("higher", "lower"):
        return f"bad direction {direction!r}"
    meta = obj.get("meta")
    return LedgerRecord(
        bench=bench,
        metric=metric,
        value=float(value),
        unit=str(obj.get("unit") or ""),
        direction=direction,
        meta=meta if isinstance(meta, dict) else {},
    )


def append_records(path: str | Path, records: Iterable[LedgerRecord]) -> int:
    """Append records to the JSONL ledger; returns how many were written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("a", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_line() + "\n")
            count += 1
    return count


def load_ledger(path: str | Path) -> tuple[list[LedgerRecord], int]:
    """Parse the ledger leniently; returns ``(records, skipped_count)``.

    Corrupt or unsupported lines are skipped and counted with a single
    summary :class:`RuntimeWarning`, mirroring the timeline loader. A
    missing ledger is simply empty — a fresh checkout has no history yet.
    """
    records: list[LedgerRecord] = []
    skipped = 0
    first_bad: tuple[int, str] | None = None
    path = Path(path)
    if not path.exists():
        return records, skipped
    with path.open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                skipped += 1
                if first_bad is None:
                    first_bad = (line_number, f"bad JSONL line: {exc}")
                continue
            parsed = _parse_record(obj)
            if isinstance(parsed, str):
                skipped += 1
                if first_bad is None:
                    first_bad = (line_number, parsed)
                continue
            records.append(parsed)
    if skipped:
        line_number, why = first_bad  # type: ignore[misc]
        warnings.warn(
            f"{path}: skipped {skipped} ledger line(s); "
            f"first at line {line_number}: {why}",
            RuntimeWarning,
            stacklevel=2,
        )
    return records, skipped


# ------------------------------------------------------------------ BENCH ingest
def bench_records(doc: Any, source: str = "") -> tuple[list[LedgerRecord], list[str]]:
    """Flatten one schema-2 BENCH document into ledger records.

    Returns ``(records, warnings)``; legacy (schema-1) documents yield no
    records and one warning, so ``repro perf record`` can sweep a results
    directory that still holds old files.
    """
    where = source or "<bench>"
    if not isinstance(doc, dict):
        return [], [f"{where}: not a JSON object"]
    if doc.get("schema") != 2:
        return [], [
            f"{where}: legacy BENCH document (schema "
            f"{doc.get('schema')!r}); skipped — re-run the benchmark"
        ]
    bench = doc.get("name")
    if not isinstance(bench, str) or not bench:
        return [], [f"{where}: missing benchmark name"]
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return [], [f"{where}: no metrics section"]
    meta = doc.get("meta")
    meta = meta if isinstance(meta, dict) else {}
    records: list[LedgerRecord] = []
    problems: list[str] = []
    for metric in sorted(metrics):
        entry = metrics[metric]
        if isinstance(entry, dict):
            value = entry.get("value")
            unit = str(entry.get("unit") or "")
            direction = entry.get("direction") or infer_direction(metric)
        else:
            value = entry
            unit = ""
            direction = infer_direction(metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{where}: metric {metric!r} is not numeric; skipped")
            continue
        if direction not in ("higher", "lower"):
            problems.append(
                f"{where}: metric {metric!r} has bad direction {direction!r}; skipped"
            )
            continue
        records.append(
            LedgerRecord(
                bench=bench,
                metric=metric,
                value=float(value),
                unit=unit,
                direction=direction,
                meta=meta,
            )
        )
    return records, problems


# -------------------------------------------------------------------- meta stamp
def collect_meta(workers: int | None = None) -> dict[str, Any]:
    """The provenance stamp benchmarks attach to every BENCH document.

    The commit hash comes from ``REPRO_COMMIT`` (CI sets it) or
    ``git rev-parse``, falling back to ``"unknown"`` outside a checkout.
    """
    commit = os.environ.get("REPRO_COMMIT")
    if not commit:
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                check=False,
            ).stdout.strip() or "unknown"
        except OSError:
            commit = "unknown"
    return {
        "commit": commit,
        "workers": workers,
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "system": platform.system(),
        },
        "recorded_at": datetime.datetime.now(datetime.UTC).isoformat(
            timespec="seconds"
        ),
    }


# ------------------------------------------------------------------------ trends
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation (unscaled)."""
    center = median(values)
    return median([abs(v - center) for v in values])


@dataclass(frozen=True)
class Trend:
    """The analyzed state of one (bench, metric) series."""

    bench: str
    metric: str
    unit: str
    direction: str
    n: int
    #: Median of the history (everything but the latest observation).
    center: float
    #: Robust spread of the history (1.4826 * MAD).
    spread: float
    #: Latest observation.
    last: float
    #: Allowed deviation from the center before flagging.
    band: float
    #: ``"ok" | "regression" | "improved" | "insufficient"``.
    status: str

    @property
    def delta_pct(self) -> float:
        if self.center == 0.0:
            return 0.0
        return (self.last - self.center) / abs(self.center) * 100.0


def trends(
    records: Sequence[LedgerRecord],
    min_history: int = 3,
    mad_k: float = 3.0,
    rel_floor: float = 0.10,
) -> list[Trend]:
    """Analyze every (bench, metric) series in ledger (= chronological) order.

    A series needs ``min_history`` observations *before* the latest one to
    be judged; younger series report ``status="insufficient"`` (never a
    failure — a fresh ledger must not gate CI red).
    """
    series: dict[tuple[str, str], list[LedgerRecord]] = {}
    for record in records:
        series.setdefault((record.bench, record.metric), []).append(record)

    out: list[Trend] = []
    for (bench, metric), observations in sorted(series.items()):
        values = [record.value for record in observations]
        latest = observations[-1]
        if len(values) < min_history + 1:
            out.append(
                Trend(
                    bench=bench,
                    metric=metric,
                    unit=latest.unit,
                    direction=latest.direction,
                    n=len(values),
                    center=values[-1],
                    spread=0.0,
                    last=values[-1],
                    band=0.0,
                    status="insufficient",
                )
            )
            continue
        history = values[:-1]
        center = median(history)
        spread = 1.4826 * mad(history)
        band = max(mad_k * spread, rel_floor * abs(center))
        delta = values[-1] - center
        if latest.direction == "higher":
            bad, good = delta < -band, delta > band
        else:
            bad, good = delta > band, delta < -band
        status = "regression" if bad else ("improved" if good else "ok")
        out.append(
            Trend(
                bench=bench,
                metric=metric,
                unit=latest.unit,
                direction=latest.direction,
                n=len(values),
                center=center,
                spread=spread,
                last=values[-1],
                band=band,
                status=status,
            )
        )
    return out
