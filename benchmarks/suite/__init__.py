"""The repo benchmark: six workloads, two currencies, a per-layer cost ladder.

``python -m benchmarks.suite --seed 11 --out run.json`` runs every workload
and prints every metric; ``--workload W --seed N --seconds S --trace 0|1``
runs one (the form ``BENCHMARK.json`` names); ``--compare A.json B.json``
judges two result files by the bounds in :mod:`benchmarks.suite.spec`.
See ``README.md`` in this directory. The ``bench_*.py`` figure scripts one
directory up are the paper-reproduction record, not this gate.
"""
