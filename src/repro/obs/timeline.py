"""JSONL timeline export/import for instrumented runs.

One run exports to one JSON-Lines file, self-describing record by record:

* ``{"record": "meta", ...}`` — run identity (seed, replica/client counts,
  profile name, simulated time);
* ``{"record": "counter", "name": ..., "value": ...}``;
* ``{"record": "hist", "name": ..., **Histogram.snapshot()}``;
* ``{"record": "span", ...}`` — one per causal span
  (:meth:`repro.obs.spans.Span.to_record`) when request tracing was enabled;
* ``{"record": "result", ...}`` — the :class:`repro.cluster.metrics.RunResult`
  aggregates.

The format is append-only and line-oriented on purpose: exports of long
runs stream, partial files stay parseable up to the truncation point, and
``grep`` works on them. :func:`load_export` reads a file back into a
:class:`RunExport` for the ``repro report`` renderer and for tests; it is
lenient — blank, corrupt, or unknown lines are *skipped and counted*
(``RunExport.skipped``, one summary warning), so a truncated or
hand-edited export still loads as far as it goes.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TYPE_CHECKING

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.spans import SpanStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.harness import Cluster


def _dump(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def registry_records(registry: MetricsRegistry) -> Iterator[dict[str, Any]]:
    """Yield one JSON-serializable record per instrument in ``registry``."""
    for name, value in registry.counters().items():
        yield {"record": "counter", "name": name, "value": value}
    for name, hist in registry.histograms().items():
        yield {"record": "hist", "name": name, **hist.snapshot()}


def export_run(cluster: "Cluster", path: str | Path) -> Path:
    """Write one cluster run's metrics (and spans, if recorded) as JSONL."""
    from repro.cluster.metrics import collect  # local import: cycle guard

    path = Path(path)
    spec = cluster.spec
    meta = {
        "record": "meta",
        "seed": spec.seed,
        "n_replicas": spec.n_replicas,
        "n_clients": len(cluster.clients),
        "profile": spec.profile.name,
        "state_mode": spec.state_mode.value,
        "sim_time": cluster.kernel.now,
    }
    spans = cluster.tracer.store.to_records() if cluster.tracer.enabled else ()
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_dump(meta) + "\n")
        for record in registry_records(cluster.metrics):
            fh.write(_dump(record) + "\n")
        for record in spans:
            fh.write(_dump(record) + "\n")
        fh.write(_dump({"record": "result", **collect(cluster).to_dict()}) + "\n")
    return path


@dataclass
class RunExport:
    """A parsed JSONL export."""

    path: str = ""
    meta: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    result: dict[str, Any] = field(default_factory=dict)
    #: Lines :func:`load_export` could not parse (blank lines excluded).
    skipped: int = 0

    def span_store(self) -> SpanStore:
        """Rebuild a :class:`repro.obs.spans.SpanStore` from the span
        records (for tree reconstruction and critical-path analysis)."""
        return SpanStore.from_records(self.spans)

    def message_types(self) -> list[str]:
        """Every message type that appears in send/deliver/drop counters."""
        types: set[str] = set()
        for name in self.counters:
            for prefix in ("msg.send.", "msg.deliver.", "msg.drop."):
                if name.startswith(prefix):
                    types.add(name[len(prefix):])
        return sorted(types)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)


def load_export(path: str | Path) -> RunExport:
    """Parse a JSONL export written by :func:`export_run`.

    The record kinds read are ``meta``, ``counter``, ``hist``, ``span`` and
    ``result``. Lenient by design: a timeline may be truncated mid-line (a
    run was killed), hold records of a kind this version does not read
    (exports from before ``gauge``, ``event`` and ``prof`` records were
    dropped still carry them), or have been edited by hand. Unparseable
    and unrecognized lines are skipped and counted in
    :attr:`RunExport.skipped`; one summary warning reports the count and
    the first offending line number.
    """
    export = RunExport(path=str(path))
    first_bad: tuple[int, str] | None = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                export.skipped += 1
                if first_bad is None:
                    first_bad = (line_number, f"bad JSONL line: {exc}")
                continue
            kind = record.get("record") if isinstance(record, dict) else None
            if kind == "meta":
                export.meta = record
            elif kind == "counter":
                export.counters[record["name"]] = int(record["value"])
            elif kind == "hist":
                export.histograms[record["name"]] = Histogram.from_snapshot(record)
            elif kind == "span":
                export.spans.append(record)
            elif kind == "result":
                export.result = record
            else:
                export.skipped += 1
                if first_bad is None:
                    first_bad = (line_number, f"unknown record kind {kind!r}")
    if export.skipped:
        line_number, why = first_bad  # type: ignore[misc]
        warnings.warn(
            f"{path}: skipped {export.skipped} unparseable line(s); "
            f"first at line {line_number}: {why}",
            RuntimeWarning,
            stacklevel=2,
        )
    return export
