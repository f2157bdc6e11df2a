"""Observability: metrics registry, JSONL timelines, report rendering.

The paper's evaluation (§4) is entirely measured protocol behaviour; this
package is the measuring instrument. :class:`MetricsRegistry` holds
counters, gauges and fixed-bucket latency histograms; the simulation world
and the protocol layers record into it when a run enables metrics
(:class:`repro.cluster.harness.ClusterSpec` ``metrics=True``, the default);
:mod:`repro.obs.timeline` serializes a finished run to JSONL; and
:mod:`repro.obs.report` renders the tables behind ``repro report``.

Disabled metrics cost one dict hit and a no-op call per instrumentation
point (:data:`NULL_REGISTRY`), and recording never reads RNGs or mutates
schedules — instrumented and uninstrumented runs are byte-identical.

:mod:`repro.obs.tracing` adds causal request tracing on the same passivity
contract: :class:`Tracer` records :class:`repro.obs.spans.Span` trees per
client request, :func:`critical_path` attributes wall time to the §3.4
``M``/``E``/``m`` components, and :mod:`repro.obs.chrome` exports
Perfetto-loadable trace-event files.

One run's registry, tracer and profiler travel together as an :class:`Obs`
handle, passed to every component at construction (``obs=``).
"""

from repro.obs.chrome import chrome_events, export_chrome, validate_chrome_trace
from repro.obs.handle import NULL_OBS, Obs
from repro.obs.ledger import (
    LedgerRecord,
    Trend,
    append_records,
    bench_records,
    collect_meta,
    load_ledger,
    trends,
)
from repro.obs.prof import (
    NULL_PROFILER,
    FrameStat,
    NullProfiler,
    SimProfiler,
    attribution,
    collapsed_lines,
    counter_samples,
    write_collapsed,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    Scope,
)
from repro.obs.report import render_comparison, render_report
from repro.obs.spans import Span, SpanStore, SpanTree
from repro.obs.timeline import RunExport, export_run, load_export
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    RequestPath,
    Tracer,
    analyze_requests,
    conformance,
    critical_path,
    summarize_paths,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "FrameStat",
    "Gauge",
    "Histogram",
    "LedgerRecord",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_PROFILER",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullProfiler",
    "NullRegistry",
    "NullTracer",
    "Obs",
    "RequestPath",
    "RunExport",
    "Scope",
    "SimProfiler",
    "Span",
    "SpanStore",
    "SpanTree",
    "Tracer",
    "Trend",
    "analyze_requests",
    "append_records",
    "attribution",
    "bench_records",
    "chrome_events",
    "collapsed_lines",
    "collect_meta",
    "conformance",
    "counter_samples",
    "critical_path",
    "export_chrome",
    "export_run",
    "load_export",
    "load_ledger",
    "render_comparison",
    "render_report",
    "summarize_paths",
    "trends",
    "validate_chrome_trace",
    "write_collapsed",
]
