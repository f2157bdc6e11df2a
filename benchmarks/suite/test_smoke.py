"""Smoke test of the benchmark suite itself (not part of tier-1).

Run it explicitly::

    python -m pytest benchmarks/suite/test_smoke.py

Every workload runs once at ``--quick`` size, one traced run checks the
per-layer side, and ``--compare`` is exercised on the results.
"""

from __future__ import annotations

import copy
import json
import pathlib
import re
import subprocess
import sys

import pytest

from benchmarks.suite import spec
from benchmarks.suite.compare import compare_files

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args: str) -> tuple[dict[str, object], dict[str, object]]:
    """One suite run; returns (the detail line, the contractual last line)."""
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    detail = next(line for line in lines if line.startswith("detail "))
    return json.loads(detail[len("detail "):]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def quick_runs() -> dict[str, tuple[dict[str, object], dict[str, object]]]:
    return {
        name: run("--workload", name, "--seed", "11", "--quick") for name in spec.WORKLOAD_NAMES
    }


def test_names_units_and_benchmark_json():
    names = [m.name for m in (*spec.END_TO_END, *spec.PER_LAYER)] + list(spec.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit)
               for m in (*spec.END_TO_END, *spec.PER_LAYER))
    assert all(m.bound is not None and 0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert all(len(why) <= 200 and "\n" not in why for _, why in spec.WORKLOADS)
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_every_workload_reports_every_end_to_end_metric(quick_runs):
    for name, (detail, last) in quick_runs.items():
        assert set(last) == {"correct", "attempted", "failed", "metrics"}, name
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == [m.name for m in spec.END_TO_END], name
        for metric in spec.END_TO_END:
            entry = last["metrics"][metric.name]
            assert entry["unit"] == metric.unit and entry["value"] > 0, (name, metric.name)
        assert detail["problems"] == []


def test_traced_run_reports_every_layer_metric_and_shares_sum_to_one():
    detail, last = run("--workload", "sim-read", "--seed", "11", "--trace", "1", "--quick")
    assert list(last["metrics"]) == [m.name for m in spec.PER_LAYER]
    value = {name: entry["value"] for name, entry in last["metrics"].items()}
    shares = sum(value[f"{layer}.self_share"] for layer in spec.LAYERS)
    assert shares + value["budget.unattributed_share"] == pytest.approx(1.0, abs=0.01)
    assert value["trace.overhead_ratio"] > 1.0
    # sim-read bypasses the WAL: only the start-up election records append.
    assert value["storage.appends_per_req"] < 0.1  # (< 0.01 at full size: 10x the requests)
    assert value["transport.tcp_msgs_per_req"] == 0.0
    assert detail["correct"] is True


def test_compare_accepts_itself_and_flags_a_regression(quick_runs, tmp_path, capsys):
    document = {
        "schema": 1, "seed": 11, "seconds": 0.0, "quick": False,
        "workloads": {name: {"end_to_end": detail} for name, (detail, _) in quick_runs.items()},
    }
    # Quick runs have three host-time samples; pin the spread so the
    # verdicts below test the bound arithmetic, not this machine's noise.
    for entry in document["workloads"].values():
        for metric in entry["end_to_end"]["metrics"].values():
            metric["q1"] = metric["q3"] = metric["value"]
    worse = copy.deepcopy(document)
    rate = worse["workloads"]["sim-write"]["end_to_end"]["metrics"]["req_per_host_s"]
    rate["value"] = rate["q1"] = rate["q3"] = rate["value"] * 0.7  # worse than any bound <= 25%
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(document))
    b.write_text(json.dumps(worse))
    assert compare_files(a, a) == 0
    assert compare_files(a, b) == 1
    assert "worse" in capsys.readouterr().out
    document["quick"] = True
    a.write_text(json.dumps(document))
    with pytest.raises(SystemExit):
        compare_files(a, b)
