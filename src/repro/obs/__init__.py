"""Observability: metrics registry, JSONL timelines, report rendering.

The paper's evaluation (§4) is entirely measured protocol behaviour; this
package is the measuring instrument. :class:`MetricsRegistry` holds
counters and fixed-bucket latency histograms; the simulation world and the
protocol layers record into it when a run enables metrics
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
Perfetto-loadable trace-event files. :mod:`repro.obs.prof` books simulated
CPU per actor and message type for flamegraphs.

One run's registry, tracer and profiler travel together as an :class:`Obs`
handle, passed to every component at construction (``obs=``).
"""
