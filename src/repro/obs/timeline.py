"""JSONL timeline export/import for instrumented runs.

One run exports to one JSON-Lines file, self-describing record by record:

* ``{"record": "meta", ...}`` — run identity (seed, replica/client counts,
  profile name) so two exports can be compared meaningfully;
* ``{"record": "counter" | "gauge", "name": ..., "value": ...}``;
* ``{"record": "hist", "name": ..., **Histogram.snapshot()}``;
* ``{"record": "event", "t": ..., "kind": ..., "src": ..., "dst": ...,
  "type": ...}`` — one per trace event when tracing was enabled;
* ``{"record": "span", ...}`` — one per causal span
  (:meth:`repro.obs.spans.Span.to_record`) when request tracing was enabled;
* ``{"record": "prof", "path": [...], "calls": ..., "sim_ns": ...,
  "host_ns": ...}`` — one per profiler frame path when the run was
  profiled (:mod:`repro.obs.prof`), powering the report's hottest-handlers
  table;
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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO, TYPE_CHECKING

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
    for name, value in registry.gauges().items():
        yield {"record": "gauge", "name": name, "value": value}
    for name, hist in registry.histograms().items():
        yield {"record": "hist", "name": name, **hist.snapshot()}


def trace_records(events: Iterable[Any]) -> Iterator[dict[str, Any]]:
    """Yield one record per :class:`repro.sim.trace.TraceEvent`.

    The message payload is reduced to its type name — the timeline is for
    traffic-shape analysis; full payloads stay in the in-memory trace.
    """
    for event in events:
        detail = event.detail
        yield {
            "record": "event",
            "t": event.time,
            "kind": event.kind,
            "src": event.src,
            "dst": event.dst,
            "type": detail if isinstance(detail, str) else type(detail).__name__,
        }


def export_run(
    cluster: "Cluster",
    path: str | Path,
    include_events: bool = True,
) -> Path:
    """Write one cluster run's metrics (and trace, if recorded) as JSONL."""
    from repro.cluster.metrics import collect  # local import: cycle guard

    path = Path(path)
    spec = cluster.spec
    prof_records: list[dict[str, Any]] = []
    profiler = getattr(cluster, "profiler", None)
    if profiler is not None and profiler.enabled:
        from repro.obs.prof.export import frame_rows  # local import: cycle guard

        prof_records = [
            {
                "record": "prof",
                "path": list(frame_path),
                "calls": calls,
                "sim_ns": sim_ns,
                "host_ns": host_ns,
            }
            for frame_path, calls, sim_ns, host_ns in frame_rows(profiler)
        ]
    with path.open("w", encoding="utf-8") as fh:
        _write_records(
            fh,
            meta={
                "record": "meta",
                "seed": spec.seed,
                "n_replicas": spec.n_replicas,
                "n_clients": len(cluster.clients),
                "profile": spec.profile.name,
                "state_mode": spec.state_mode.value,
                "sim_time": cluster.kernel.now,
            },
            registry=cluster.metrics,
            events=cluster.trace if (include_events and cluster.trace is not None) else (),
            spans=cluster.tracer.store.to_records() if cluster.tracer.enabled else (),
            prof=prof_records,
            result={"record": "result", **collect(cluster).to_dict()},
        )
    return path


def _write_records(
    fh: IO[str],
    meta: dict[str, Any],
    registry: MetricsRegistry,
    events: Iterable[Any],
    result: dict[str, Any],
    spans: Iterable[dict[str, Any]] = (),
    prof: Iterable[dict[str, Any]] = (),
) -> None:
    fh.write(_dump(meta) + "\n")
    for record in registry_records(registry):
        fh.write(_dump(record) + "\n")
    for record in trace_records(events):
        fh.write(_dump(record) + "\n")
    for record in spans:
        fh.write(_dump(record) + "\n")
    for record in prof:
        fh.write(_dump(record) + "\n")
    fh.write(_dump(result) + "\n")


@dataclass
class RunExport:
    """A parsed JSONL export."""

    path: str = ""
    meta: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)
    #: Profiler frame records (``{"path", "calls", "sim_ns", "host_ns"}``).
    prof: list[dict[str, Any]] = field(default_factory=list)
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

    Lenient by design: a timeline may be truncated mid-line (a run was
    killed), hold records from a newer schema, or have been edited by hand.
    Unparseable and unrecognized lines are skipped and counted in
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
            elif kind == "gauge":
                export.gauges[record["name"]] = float(record["value"])
            elif kind == "hist":
                export.histograms[record["name"]] = Histogram.from_snapshot(record)
            elif kind == "event":
                export.events.append(record)
            elif kind == "span":
                export.spans.append(record)
            elif kind == "prof":
                export.prof.append(record)
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
