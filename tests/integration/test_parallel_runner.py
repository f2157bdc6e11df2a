"""Parallel sweep runner: determinism, crash recovery, seed hygiene.

The load-bearing promise: the merged ``results`` section is a pure
function of the spec list — byte-identical for any worker count, any
completion order, and any retry history. Everything host-dependent
(wall-clock, attempts, worker ids) lives in the separated timing section.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.chaos.runner import ChaosOptions, run_chaos
from repro.errors import ConfigError
from repro.experiments import figures_grid
from repro.parallel.merge import canonical_json, merge_records, merge_sweep
from repro.parallel.runner import SweepOptions, run_grid, run_sweep
from repro.parallel.spec import RunSpec, calibration_grid, chaos_grid, selftest_grid

#: Small, fast chaos trials for sweep-level tests (~10 ms each).
FAST_CHAOS = dict(n_clients=1, requests_per_client=3, horizon=0.4, liveness_grace=4.0)


def merged_bytes(sweep) -> str:
    return canonical_json(merge_records(sweep.records))


class TestMergedDeterminism:
    def test_workers_1_4_8_byte_identical(self):
        specs = chaos_grid(seeds=6, **FAST_CHAOS)
        docs = {
            workers: merged_bytes(run_sweep(specs, SweepOptions(workers=workers)))
            for workers in (1, 4, 8)
        }
        assert docs[1] == docs[4] == docs[8]

    def test_submission_order_does_not_matter(self):
        specs = chaos_grid(seeds=5, **FAST_CHAOS)
        forward = run_sweep(specs, SweepOptions(workers=1))
        backward = run_sweep(list(reversed(specs)), SweepOptions(workers=3))
        assert merged_bytes(forward) == merged_bytes(backward)

    def test_timing_is_separated_from_results(self):
        specs = chaos_grid(seeds=3, **FAST_CHAOS)
        doc = merge_sweep(run_sweep(specs, SweepOptions(workers=2)))
        assert set(doc) == {"name", "results", "timing"}
        # Nothing host-dependent in the results section.
        assert "wall" not in json.dumps(doc["results"])
        # Timing has per-run wall and realized parallelism.
        assert doc["timing"]["workers"] == 2
        assert set(doc["timing"]["runs"]) == {spec.key for spec in specs}

    def test_canonical_json_is_stable(self):
        doc = {"b": 1, "a": [1.5, {"z": None, "y": "x"}]}
        assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


class TestCrashRecovery:
    def test_killed_worker_is_retried_with_unchanged_merge(self, tmp_path):
        marker = tmp_path / "crashed"
        specs = [RunSpec(task="echo", key=f"echo/{i}", params={"value": i})
                 for i in range(5)]
        crash = RunSpec(
            task="crash",
            key="crash/once",
            params={"marker": str(marker), "value": 42},
        )
        specs.insert(2, crash)

        # Reference: the same specs where the crash never happens (marker
        # pre-created, so the task completes on its first attempt).
        marker.write_text("pre-existing\n")
        reference = run_sweep(specs, SweepOptions(workers=1))
        marker.unlink()

        sweep = run_sweep(specs, SweepOptions(workers=3, retries=1))
        record = next(r for r in sweep.records if r.spec.key == "crash/once")
        assert record.ok
        assert record.attempts == 2  # first attempt SIGKILLed the worker
        assert merged_bytes(sweep) == merged_bytes(reference)

    def test_timeout_kills_and_records_error(self):
        specs = [
            RunSpec(task="hang", key="hang/0", params={"duration": 60.0}),
            RunSpec(task="echo", key="echo/0", params={"value": 0}),
            RunSpec(task="echo", key="echo/1", params={"value": 1}),
        ]
        sweep = run_sweep(specs, SweepOptions(workers=2, timeout=0.3, retries=0))
        hang = next(r for r in sweep.records if r.spec.key == "hang/0")
        assert not hang.ok
        assert "timeout" in hang.error
        assert all(r.ok for r in sweep.records if r.spec.key != "hang/0")
        assert not sweep.ok and sweep.failed() == [hang]

    def test_task_exception_becomes_error_record_not_retry(self):
        specs = [
            RunSpec(task="fail", key="fail/0", params={"message": "boom"}),
            RunSpec(task="echo", key="echo/0", params={"value": 1}),
        ]
        sweep = run_sweep(specs, SweepOptions(workers=2, retries=3))
        failed = next(r for r in sweep.records if r.spec.key == "fail/0")
        assert failed.error == "RuntimeError: boom"
        # Deterministic failures are not retried (they would fail again).
        assert failed.attempts == 1


class TestSeedHygiene:
    """Satellite fix: run seeds are part of the run spec, so parallel
    execution (sharding, stealing, retries) cannot skew any schedule."""

    def test_every_chaos_spec_carries_its_own_seed(self):
        specs = chaos_grid(seeds=4, first_seed=7, **FAST_CHAOS)
        assert [spec.params["seed"] for spec in specs] == [7, 8, 9, 10]
        for spec in specs:
            assert f"seed={spec.params['seed']:06d}" in spec.key
            # The options are fully materialized — a worker needs nothing
            # beyond the spec to reproduce the trial.
            ChaosOptions(**spec.params["options"])

    def test_parallel_chaos_trial_equals_direct_serial_call(self):
        specs = chaos_grid(seeds=3, **FAST_CHAOS)
        sweep = run_sweep(specs, SweepOptions(workers=3))
        options = ChaosOptions(**specs[0].params["options"])
        for record in sweep.records:
            direct = run_chaos(record.spec.params["seed"], options)
            assert record.result == direct.to_dict()

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
        one must merge byte-identically."""
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
        serial = run_sweep(specs, SweepOptions(workers=1))
        sharded = run_sweep(list(reversed(specs)), SweepOptions(workers=4))
        assert merged_bytes(serial) == merged_bytes(sharded)
        assert all(record.result["total_bytes"] > 0 for record in serial.records)

    def test_calibration_grid_keys_unique_and_sorted_stable(self):
        specs = calibration_grid(samples=10, seeds=3)
        keys = [spec.key for spec in specs]
        assert len(set(keys)) == len(keys)

    def test_selftest_grid_deterministic_across_workers(self):
        """The selftest grid merges byte-identically at any worker count,
        and the sleep knob (overlap only) never reaches a task result."""
        specs = selftest_grid(runs=5, sleep=0.01)
        serial = run_sweep(specs, SweepOptions(workers=1))
        sharded = run_sweep(specs, SweepOptions(workers=3))
        assert merged_bytes(serial) == merged_bytes(sharded)
        assert [r.result for r in serial.records] == [
            {"echo": {"index": i}} for i in range(5)
        ]


class TestSpecsAndPmap:
    def test_duplicate_keys_rejected(self):
        specs = [
            RunSpec(task="echo", key="dup", params={}),
            RunSpec(task="echo", key="dup", params={}),
        ]
        with pytest.raises(ConfigError, match="duplicate run key"):
            run_sweep(specs, SweepOptions(workers=1))

    def test_run_grid_keys_results_and_raises_on_a_failed_run(self):
        specs = [RunSpec(task="echo", key=f"k{i}", params={"value": i}) for i in range(5)]
        results = run_grid(specs, workers=3)
        assert {key: r["echo"]["value"] for key, r in results.items()} == {
            f"k{i}": i for i in range(5)
        }
        failing = [RunSpec(task="fail", key=f"f{i}", params={"message": "boom"}) for i in (0, 1)]
        with pytest.raises(RuntimeError, match="2/2 runs failed; first: f0: .*boom"):
            run_grid(failing, workers=2)

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="unknown task"):
            run_sweep([RunSpec(task="nope", key="k", params={})])

    def test_invalid_options_rejected(self):
        with pytest.raises(ConfigError):
            SweepOptions(workers=-1)
        with pytest.raises(ConfigError):
            SweepOptions(timeout=0.0)
        with pytest.raises(ConfigError):
            SweepOptions(retries=-1)

    def test_spec_requires_key(self):
        with pytest.raises(ConfigError):
            RunSpec(task="echo", key="")

    def test_options_roundtrip_through_worker(self):
        """ChaosOptions survive asdict/reconstruct across the process
        boundary — guards against adding an unpicklable field."""
        options = ChaosOptions(protocol="xpaxos", **FAST_CHAOS)
        rebuilt = ChaosOptions(**dataclasses.asdict(options))
        assert rebuilt == options
