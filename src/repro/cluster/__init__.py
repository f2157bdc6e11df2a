"""Experiment harness: wire replicas + clients over a profile and run.

* :mod:`repro.cluster.harness` — :class:`Cluster`: build and run one
  deployment in the simulator.
* :mod:`repro.cluster.metrics` — result collection (RRT/TRT summaries,
  throughput).
* :mod:`repro.cluster.faults` — crash/recover/partition/leader-switch
  schedules.
* :mod:`repro.cluster.scenarios` — canned runners for each paper
  experiment (used by the benchmarks and by EXPERIMENTS.md).
"""
