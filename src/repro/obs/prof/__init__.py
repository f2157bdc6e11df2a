"""Deterministic sim-profiler: folded stacks, counter tracks, attribution.

See :mod:`repro.obs.prof.profiler` for the collection machinery (zero
overhead when off, byte-identical simulation when on) and
:mod:`repro.obs.prof.export` for the flamegraph / Perfetto / table
exporters. ``docs/performance.md`` has the walkthrough.
"""
