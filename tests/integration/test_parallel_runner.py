"""Grid runner: determinism, failure model, seed hygiene.

The load-bearing promise: the results of a grid are a pure function of
the spec list — identical for any worker count and any submission order.
A cell that raises is named, with every other failed cell, once the grid
has finished; a worker that dies ends the grid with an error.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.chaos.runner import ChaosOptions, run_chaos
from repro.cli import chaos_specs
from repro.errors import ConfigError
from repro.experiments import figures_grid
from repro.parallel.runner import run_grid
from repro.parallel.spec import RunSpec
from repro.parallel.tasks import TASKS

#: Small, fast chaos trials for grid-level tests (~10 ms each).
FAST_CHAOS = dict(n_clients=1, requests_per_client=3, horizon=0.4, liveness_grace=4.0)


def fast_specs(seeds: int, first_seed: int = 0) -> list[RunSpec]:
    return chaos_specs(ChaosOptions(**FAST_CHAOS), range(first_seed, first_seed + seeds))


def as_dicts(results) -> dict:
    return {key: result.to_dict() for key, result in results.items()}


def _touch(path: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("ran\n")


@pytest.fixture
def scratch_tasks(monkeypatch, tmp_path):
    """Register throwaway tasks; forked workers inherit the patched table.
    Each run appends a line to ``tmp_path/<name>``, so a test can count
    which cells ran."""

    def echo(params):
        _touch(str(tmp_path / params["name"]))
        return {"echo": params["value"]}

    def fail(params):
        _touch(str(tmp_path / params["name"]))
        raise RuntimeError(params["message"])

    def die(params):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setitem(TASKS, "echo", echo)
    monkeypatch.setitem(TASKS, "fail", fail)
    monkeypatch.setitem(TASKS, "die", die)
    return tmp_path


class TestMergedDeterminism:
    def test_workers_1_4_8_byte_identical(self):
        specs = fast_specs(6)
        runs = {workers: as_dicts(run_grid(specs, workers)) for workers in (1, 4, 8)}
        assert runs[1] == runs[4] == runs[8]

    def test_submission_order_does_not_matter(self):
        specs = fast_specs(5)
        forward = run_grid(specs, workers=1)
        backward = run_grid(list(reversed(specs)), workers=3)
        assert list(backward) == [spec.key for spec in reversed(specs)]
        assert as_dicts(forward) == as_dicts(backward)


class TestCrashRecovery:
    def test_killed_worker_ends_the_grid(self, scratch_tasks):
        specs = [
            RunSpec(task="echo", key=f"echo/{i}", params={"name": f"echo{i}", "value": i})
            for i in range(5)
        ]
        specs.insert(2, RunSpec(task="die", key="die/0"))
        start = time.perf_counter()
        with pytest.raises(BrokenProcessPool):
            run_grid(specs, workers=3)
        assert time.perf_counter() - start < 10.0

    def test_task_exception_becomes_error_record_not_retry(self, scratch_tasks):
        """One raising cell among good ones is named by key; the others
        still ran, and the raising one ran once."""
        specs = [
            RunSpec(task="echo", key=f"echo/{i}", params={"name": f"echo{i}", "value": i})
            for i in range(4)
        ]
        specs.insert(1, RunSpec(task="fail", key="fail/0",
                                params={"name": "fail0", "message": "boom"}))
        with pytest.raises(RuntimeError) as excinfo:
            run_grid(specs, workers=2)
        assert str(excinfo.value) == "fail/0: RuntimeError: boom"
        for name in ("fail0", "echo0", "echo1", "echo2", "echo3"):
            assert (scratch_tasks / name).read_text() == "ran\n"


class TestSeedHygiene:
    """Run seeds are part of the run spec, so parallel execution cannot
    skew any schedule."""

    def test_every_chaos_spec_carries_its_own_seed(self):
        specs = fast_specs(4, first_seed=7)
        assert [spec.params["seed"] for spec in specs] == [7, 8, 9, 10]
        for spec in specs:
            assert f"seed={spec.params['seed']:06d}" in spec.key
            # The options are fully materialized — a worker needs nothing
            # beyond the spec to reproduce the trial.
            ChaosOptions(**spec.params["options"])

    def test_parallel_chaos_trial_equals_direct_serial_call(self):
        specs = fast_specs(3)
        results = run_grid(specs, workers=3)
        options = ChaosOptions(**specs[0].params["options"])
        for spec in specs:
            direct = run_chaos(spec.params["seed"], options)
            assert results[spec.key].to_dict() == direct.to_dict()

    def test_figure_grid_seeds_match_serial_report(self):
        """The grid must pin the exact seeds the serial sections use —
        a parallel sweep reproduces the serial report's numbers."""
        by_task = {}
        for spec in figures_grid(quick=True):
            by_task.setdefault(spec.task, set()).add(spec.params["seed"])
        assert by_task == {
            "rrt": {1},
            "throughput": {3},
            "txn_rrt": {2},
            "txn_throughput": {5},
            "state_transfer": {4},
            "message_complexity": {2},
            "leader_switch": {7},
            "t_sweep": {9},
            "fsync_modes": {11},
            "sharding": {5},
            "latency_throughput": {3},
        }

    def test_byte_totals_identical_for_any_worker_layout(self):
        """``total_bytes`` is modelled per message, so it may not depend on
        which messages a process happened to size first: one process running
        every spec in turn and fresh workers each starting on a different
        one must give identical results."""
        specs = [
            RunSpec(
                task=task,
                key=f"bytes/{task}/{index}",
                params={"seed": 3, "profile": "sysnet", **params},
            )
            for index, (task, params) in enumerate(
                [
                    ("throughput", {"kind": "write", "n_clients": 2, "total_requests": 40}),
                    ("throughput", {"kind": "read", "n_clients": 2, "total_requests": 40}),
                    ("txn_throughput", {"mode": "optimized", "requests_per_txn": 3,
                                        "n_clients": 2, "total_txns": 10}),
                    ("throughput", {"kind": "write", "n_clients": 3, "total_requests": 30}),
                ]
            )
        ]
        serial = run_grid(specs, workers=1)
        sharded = run_grid(list(reversed(specs)), workers=4)
        assert serial == sharded
        assert all(result["total_bytes"] > 0 for result in serial.values())


class TestSpecsAndPmap:
    def test_duplicate_keys_rejected(self):
        specs = [
            RunSpec(task="rrt", key="dup", params={}),
            RunSpec(task="rrt", key="dup", params={}),
        ]
        with pytest.raises(ConfigError, match="duplicate run key"):
            run_grid(specs, workers=1)

    def test_run_grid_keys_results_and_raises_on_a_failed_run(self, scratch_tasks):
        specs = [
            RunSpec(task="echo", key=f"k{i}", params={"name": f"k{i}", "value": i})
            for i in range(5)
        ]
        results = run_grid(specs, workers=3)
        assert results == {f"k{i}": {"echo": i} for i in range(5)}
        failing = [
            RunSpec(task="fail", key=f"f{i}", params={"name": f"f{i}", "message": "boom"})
            for i in (0, 1)
        ]
        with pytest.raises(RuntimeError) as excinfo:
            run_grid(failing, workers=2)
        assert str(excinfo.value) == "f0: RuntimeError: boom\nf1: RuntimeError: boom"

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="unknown task"):
            run_grid([RunSpec(task="nope", key="k", params={})])

    def test_spec_requires_key(self):
        with pytest.raises(ConfigError):
            RunSpec(task="rrt", key="")

    def test_options_roundtrip_through_worker(self):
        """ChaosOptions survive asdict/reconstruct across the process
        boundary — guards against adding an unpicklable field."""
        options = ChaosOptions(protocol="xpaxos", **FAST_CHAOS)
        rebuilt = ChaosOptions(**dataclasses.asdict(options))
        assert rebuilt == options
