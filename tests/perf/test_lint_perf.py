"""Perf guard for the whole-program analyzer — opt in with ``--perf``.

The ISSUE budget: a project scan of ``src/`` must finish in under 10 s,
and the report — including the ``--graph json`` export — must be
byte-identical across PYTHONHASHSEED values.  The wall-clock ceiling is
deliberately generous (the calibrated scan is well under 3 s); it gates
accidental quadratic blowups in the index or call-graph build, not
machine speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

BUDGET_S = 10.0


def _run_lint(extra: list[str], *, seed: str = "0") -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(SRC), *extra],
        capture_output=True,
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


class TestAnalyzerWallClock:
    def test_scan_budget(self):
        start = time.perf_counter()
        _run_lint([])
        elapsed = time.perf_counter() - start

        print(f"scan: {elapsed:.2f}s (budget {BUDGET_S}s)")
        assert elapsed < BUDGET_S


class TestAnalyzerHashSeedStability:
    def test_report_and_graph_export_stable_across_seeds(self):
        for extra in (["--format", "json"], ["--graph", "json"]):
            outputs = [_run_lint(extra, seed=seed).stdout for seed in ("1", "987")]
            assert outputs[0] == outputs[1], f"unstable output for {extra}"
        document = json.loads(outputs[0])
        assert document["call_edges"], "graph export must not be empty"
