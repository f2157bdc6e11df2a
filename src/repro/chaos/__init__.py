"""Chaos engine: randomized fault schedules, safety invariants, shrinking.

See :mod:`repro.chaos.schedule` (seeded nemesis timelines),
:mod:`repro.chaos.invariants` (the safety/liveness properties checked),
:mod:`repro.chaos.runner` (one trial end to end),
:mod:`repro.chaos.shrink` (failing-schedule minimization) and
:mod:`repro.chaos.report` (deterministic summaries). Driven by
``repro chaos`` (:mod:`repro.cli`) and ``docs/robustness.md``.
"""
