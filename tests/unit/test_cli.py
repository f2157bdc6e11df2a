"""Unit tests for the CLI."""

from __future__ import annotations

import copy
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import experiments
from repro.cli import main
from repro.parallel.runner import run_grid


class TestMdTable:
    def test_shape(self):
        out = experiments.md_table(["a", "b"], [[1, 2], [3, 4]])
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"
        assert len(lines) == 4


class TestCommands:
    def test_profiles_command(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "sysnet" in out and "wan" in out and "berkeley_princeton" in out
        assert "0.181" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_loads_no_subcommand_machinery(self):
        """A subcommand's machinery is imported when it is dispatched, not
        to print the usage (``-X importtime`` names every module loaded)."""
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(Path(__file__).parents[2] / "src")},
        )
        assert done.returncode == 0 and "usage: repro" in done.stdout
        loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        assert "repro.cli" in loaded
        heavy = {"numpy", "repro.lint.engine", "repro.experiments", "asyncio"}
        assert sorted(heavy & loaded) == []

    def test_closed_pipe_exits_quietly(self):
        """``repro profile | head -2``: the reader is gone before the output
        is flushed. The CLI exits 1 with an empty stderr (the Python docs'
        SIGPIPE recipe), not with a BrokenPipeError traceback."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "profile", "--requests", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(Path(__file__).parents[2] / "src")},
        )
        proc.stdout.close()  # the read end: every write now fails with EPIPE
        _out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")


#: Bad input ends in ``repro: error: ...`` and exit status 2, never a
#: traceback: (argv, a fragment of the message).
BAD_INPUT = [
    (["run", "--groups", "0"], "at least one replication group"),
    (["chaos", "--groups", "0", "--seeds", "1"], "at least one group"),
    (["chaos", "--storage-faults", "--seeds", "1"], "storage_faults requires"),
    (["run", "--clients", "0"], "--clients must be at least 1"),
    (["run", "--requests", "-5"], "--requests must be at least 1"),
    (["trace", "--clients", "0"], "--clients must be at least 1"),
    (["trace", "--requests", "0"], "--requests must be at least 1"),
    (["profile", "--clients", "-1"], "--clients must be at least 1"),
    (["profile", "--requests", "0"], "--requests must be at least 1"),
    (["chaos", "--clients", "0"], "--clients must be at least 1"),
    (["chaos", "--requests", "0"], "--requests must be at least 1"),
    (["chaos", "--seeds", "0"], "--seeds must be at least 1"),
    (["chaos", "--workers", "0"], "--workers must be at least 1"),
    (["profile", "--execute-time", "-1"], "execute_time must be >= 0"),
    (["chaos", "--intensity", "-1", "--seeds", "1"], "intensity must be >= 0"),
    # Rejected once, up front — not once per seed from inside the sweep.
    (["chaos", "--seeds", "3", "--replicas", "1"], "at least two replicas"),
    (["experiments", "--workers", "-1"], "--workers must be at least 1"),
    (["run", "--requests", "2", "--clients", "5"], "each client needs at least one request"),
    # Non-finite times: NaN passes every range check, and an infinite
    # horizon never finished generating its schedule.
    (["chaos", "--horizon", "inf", "--seeds", "1"], "horizon must be finite, got inf"),
    (["chaos", "--horizon", "nan", "--seeds", "1"], "horizon must be finite, got nan"),
    (["chaos", "--intensity", "nan", "--seeds", "1"], "intensity must be finite, got nan"),
    (["profile", "--execute-time", "inf"], "execute_time must be finite, got inf"),
    (["profile", "--execute-time", "nan"], "execute_time must be finite, got nan"),
    # A slice would print all rows but the last three, or none.
    (["profile", "--top", "0"], "--top must be at least 1"),
    (["profile", "--top", "-3"], "--top must be at least 1"),
]


@pytest.mark.parametrize(("argv", "fragment"), BAD_INPUT)
def test_bad_input_is_a_usage_error(argv, fragment, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("repro: error: ") == 1 and fragment in err
    assert "Traceback" not in err and "chaos/seed=" not in err


@pytest.mark.parametrize("command", ["run", "chaos"])
def test_fsync_is_sync_or_async(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--fsync", "group"])
    assert excinfo.value.code == 2
    assert "argument --fsync: invalid choice: 'group'" in capsys.readouterr().err


class TestRunAndReport:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "--requests", "6", "--clients", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "clients=2" in out
        assert "messages=" in out  # metrics on by default

    def test_run_sends_exactly_the_requested_total(self, capsys):
        # 7 over 2 clients: the first client sends the odd one out.
        assert main(["run", "--requests", "7", "--clients", "2"]) == 0
        assert "requests=7" in capsys.readouterr().out

    def test_run_export_then_report(self, tmp_path, capsys):
        export = tmp_path / "run.jsonl"
        assert main(["run", "--requests", "6", "--export", str(export)]) == 0
        capsys.readouterr()
        assert export.exists()
        assert main(["report", str(export)]) == 0
        out = capsys.readouterr().out
        assert "Per-message-type traffic" in out
        assert "AcceptBatch" in out
        assert re.search(r"^r0\.g0\.phase\.propose_accepted\s+6\s", out, re.M)
        assert re.search(r"^r1\.g0\.phase\.accept_chosen\s+6\s", out, re.M)
        assert out.splitlines()[-1].startswith("totals: requests=6 messages=")

    def test_report_rejects_three_paths(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "a", "b", "c"])

    def test_run_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            main(["run", "--kind", "bogus"])


class TestTraceCommand:
    def test_trace_prints_waterfalls_and_formula_tables(self, capsys):
        assert main(["trace", "--requests", "4", "--show", "2"]) == 0
        out = capsys.readouterr().out
        assert len(re.findall(r"^trace \d+$", out, re.M)) == 2
        assert "Critical-path attribution (ms)" in out
        assert re.search(r"^write\s+2M \+ E \+ 2m\s+4\s", out, re.M)


def _swap(results, a, b):
    results[a], results[b] = results[b], results[a]


def _swap_read_and_write_under_switches(results, monkeypatch):
    for run in ("stable", "switching"):
        _swap(results, f"leader_switch/read/{run}", f"leader_switch/write/{run}")


#: Per ablation stem: the first words of its table's title, and one way
#: to make the measured numbers (or the bar they are held to) contradict
#: its claim.
ABLATIONS = {
    "state_transfer": (
        "§3.3 — write RRT and shipped payload",
        lambda results, monkeypatch: _swap(
            results, "state_transfer/delta/1000000", "state_transfer/full/1000000"
        ),
    ),
    "message_complexity": (
        "Message complexity per request",
        lambda results, monkeypatch: monkeypatch.setitem(
            experiments.MESSAGE_COUNTS, "write", ("write", "n + 4(n-1) + 1", 12, 0.6)
        ),
    ),
    "leader_switch": (
        "§3.6 — completion time under forced leader switches",
        _swap_read_and_write_under_switches,
    ),
    "t_sweep": (
        "§4.3 — RRT vs replication degree",
        lambda results, monkeypatch: _swap(results, "t_sweep/n=7/read", "t_sweep/n=3/read"),
    ),
    "fsync_modes": (
        "Stable storage",
        lambda results, monkeypatch: results["fsync_modes/async"].update(fsyncs=1),
    ),
    "sharding": (
        "Sharded replication",
        lambda results, monkeypatch: monkeypatch.setattr(
            experiments, "SHARDING_MIN_SPEEDUP", 4.5
        ),
    ),
    "latency_throughput": (
        "Open-loop latency vs offered load",
        lambda results, monkeypatch: _swap(
            results, "latency_throughput/load=1.10", "latency_throughput/load=0.20"
        ),
    ),
}


class TestExperimentsReport:
    @pytest.fixture(scope="class")
    def quick_results(self):
        # The one slow-ish run of this class: the whole §4 grid, quick mode.
        return run_grid(experiments.figures_grid(quick=True))

    @pytest.mark.parametrize("quick", [True, False])
    def test_grid_is_the_union_of_the_records_cells(self, quick):
        per_figure = [[s.key for s in f.cells(quick)] for f in experiments.FIGURES]
        assert len(per_figure) == 15  # eight files of §4 and seven ablations
        assert all(per_figure), "a record without cells"
        flat = [key for keys in per_figure for key in keys]
        assert len(set(flat)) == len(flat), "two records claim one cell"
        assert [s.key for s in experiments.figures_grid(quick)] == flat

    def test_quick_report_contains_every_artefact(self, quick_results):
        report = experiments.report(quick_results, elapsed=0.0)
        assert report.count("Paper check: ") == 17
        assert "VIOLATED" not in report
        for figure in experiments.FIGURES:
            # A record reads its own cells and no other's.
            own = {s.key: quick_results[s.key] for s in figure.cells(True)}
            assert figure.check(own) == []
        for marker in (
            "sysnet — request response time",
            "berkeley_princeton — request response time",
            "wan — request response time",
            "Fig. 5",
            "Fig. 6",
            "Fig. 7",
            "Fig. 8",
            "Table 1",
            "Fig. 9a",
            "Fig. 9b",
            *(title for title, _ in ABLATIONS.values()),
        ):
            assert marker in report, f"missing {marker}"
        # Spot-check one paper number appears alongside a measured one.
        assert "0.181" in report and "106.7" in report

    def violated(self, results):
        return [v for f in experiments.FIGURES for v in f.check(results)]

    def test_swapped_fig5_curves_are_named(self, quick_results):
        results = copy.deepcopy(quick_results)
        cell = "throughput/fig5/sysnet/c=004/"
        results[cell + "read"], results[cell + "write"] = (
            results[cell + "write"], results[cell + "read"],
        )
        violated = self.violated(results)
        assert len(violated) == 1
        assert violated[0].startswith("Fig. 5") and "at 4 clients" in violated[0]

    def test_table1_cell_off_by_ten_percent_is_named(self, quick_results):
        results = copy.deepcopy(quick_results)
        results["table1/optimized/k=5"]["trt"]["mean"] *= 1.10
        violated = self.violated(results)
        assert len(violated) == 1
        assert violated[0].startswith("Table 1") and "optimized 5-req" in violated[0]

    def test_exit_status_follows_the_checks(self, quick_results, monkeypatch, capsys):
        monkeypatch.setattr("repro.parallel.runner.run_grid", lambda specs, workers: quick_results)
        assert main(["experiments", "--quick"]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setitem(experiments.TABLE1_PAPER_MS, ("read_write", 3), 2.0)
        assert main(["experiments", "--quick"]) == 1
        captured = capsys.readouterr()
        assert "repro experiments: Table 1" in captured.err
        assert "VIOLATED: read_write 3-req" in captured.out

    @pytest.mark.parametrize("stem", ABLATIONS)
    def test_a_seeded_ablation_violation_is_named(
        self, stem, quick_results, monkeypatch, capsys
    ):
        title, seed_violation = ABLATIONS[stem]
        results = copy.deepcopy(quick_results)
        seed_violation(results, monkeypatch)
        monkeypatch.setattr("repro.parallel.runner.run_grid", lambda specs, workers: results)
        assert main(["experiments", "--quick"]) == 1
        captured = capsys.readouterr()
        assert captured.err
        for line in captured.err.splitlines():
            assert line.startswith(f"repro experiments: {title}"), line
        assert captured.out.count("VIOLATED: ") == 1
        assert [f.stem for f in experiments.FIGURES if f.check(results)] == [stem]


class TestChaosCommand:
    def test_clean_sweep_exits_zero_and_writes_summary(self, tmp_path, capsys):
        summary_path = tmp_path / "chaos.json"
        code = main([
            "chaos", "--seeds", "3", "--requests", "4", "--horizon", "0.5",
            "--summary", str(summary_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 seed(s): 3 ok, 0 violating" in out
        import json

        summary = json.loads(summary_path.read_text())
        assert summary["seeds"] == 3 and summary["violating"] == 0

    def test_profile_flag_reaches_the_trials(self, tmp_path):
        import json

        summaries = {}
        for profile in ("flat", "sysnet"):
            path = tmp_path / f"{profile}.json"
            assert main([
                "chaos", "--seeds", "2", "--requests", "4", "--horizon", "0.5",
                "--profile", profile, "--quiet", "--summary", str(path),
            ]) == 0
            summaries[profile] = json.loads(path.read_text())["results"]
        # sysnet's CPUs and links cost time, so the trials end elsewhere.
        assert [r["sim_time"] for r in summaries["flat"]] != [
            r["sim_time"] for r in summaries["sysnet"]
        ]
        with pytest.raises(SystemExit):
            main(["chaos", "--profile", "wan"])

    def test_mutation_sweep_exits_nonzero_with_dossier(self, capsys):
        code = main([
            "chaos", "--seeds", "1", "--seed", "3",
            "--mutation", "minority-accept", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "violation(s)" in out
        assert "runnable repro script:" in out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--protocol", "raft"])

    def test_traced_violation_prints_waterfalls(self, capsys):
        code = main([
            "chaos", "--seeds", "1", "--seed", "3", "--mutation", "minority-accept",
            "--tracing", "--workers", "4", "--quiet",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "--tracing forces --workers 1" in captured.err
        assert "slowest request" in captured.out

    def test_raising_trial_is_an_error_record_not_a_traceback(
        self, monkeypatch, capsys
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.chaos.runner.run_chaos", boom)
        assert main(["chaos", "--seeds", "2"]) == 2
        err = capsys.readouterr().err
        assert "chaos: chaos/seed=000001: RuntimeError: boom" in err


class TestProfileCommand:
    def test_profile_prints_tables(self, capsys):
        assert main(["profile", "--requests", "6", "--clients", "2"]) == 0
        out = capsys.readouterr().out
        assert "Hottest handlers (top 10 by sim time, exclusive)" in out
        assert re.search(r"^frame\s+calls\s+sim ms$", out, re.M)

    def test_profile_writes_collapsed_and_chrome(self, tmp_path, capsys):
        flame = tmp_path / "flame.txt"
        trace = tmp_path / "trace.json"
        assert main([
            "profile", "--requests", "6", "--execute-time", "0.001",
            "--out", str(flame), "--chrome", str(trace),
        ]) == 0
        capsys.readouterr()
        lines = flame.read_text().splitlines()
        assert lines and all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
        from repro.obs.chrome import validate_chrome_trace

        assert validate_chrome_trace(trace)["duration_spans"] > 0

    def test_profile_sim_metric_still_ranks_by_sim_time(self, capsys):
        assert main(["profile", "--requests", "40"]) == 0
        out = capsys.readouterr().out
        sim_ms = [float(line.split()[-1]) for line in out.splitlines() if ";" in line]
        assert sim_ms and sim_ms[0] > 0.0
        assert sim_ms == sorted(sim_ms, reverse=True)


class TestPerfCommand:
    def _bench_doc(self, value):
        return {
            "schema": 2,
            "name": "rrt_sysnet",
            "text": "",
            "data": None,
            "metrics": {
                "rrt_write_s": {
                    "value": value, "unit": "s", "direction": "lower",
                },
            },
            "meta": {"commit": "t" * 7},
        }

    def _record(self, tmp_path, ledger, value, idx):
        import json

        doc = tmp_path / f"BENCH_rrt_{idx}.json"
        doc.write_text(json.dumps(self._bench_doc(value)))
        assert main([
            "perf", "record", str(doc), "--ledger", str(ledger),
        ]) == 0

    def test_record_then_flat_check_passes(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        for i, v in enumerate([1.0, 1.01, 0.99, 1.0, 1.005]):
            self._record(tmp_path, ledger, v, i)
        capsys.readouterr()
        assert main(["perf", "check", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "rrt_write_s" in out and "ok" in out

    def test_seeded_regression_fails_check(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        for i, v in enumerate([1.0, 1.01, 0.99, 1.0, 1.3]):  # +30% step
            self._record(tmp_path, ledger, v, i)
        capsys.readouterr()
        code = main(["perf", "check", "--ledger", str(ledger)])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION" in captured.err
        assert "rrt_write_s" in captured.err

    def test_trend_renders_table(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        for i, v in enumerate([1.0, 1.0, 1.0, 1.0]):
            self._record(tmp_path, ledger, v, i)
        capsys.readouterr()
        assert main(["perf", "trend", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "rrt_sysnet" in out and "rrt_write_s" in out

    def test_check_on_missing_ledger_passes(self, tmp_path, capsys):
        assert main([
            "perf", "check", "--ledger", str(tmp_path / "absent.jsonl"),
        ]) == 0

    def test_record_from_results_dir_glob(self, tmp_path, capsys):
        import json

        ledger = tmp_path / "ledger.jsonl"
        (tmp_path / "BENCH_a.json").write_text(json.dumps(self._bench_doc(1.0)))
        (tmp_path / "notes.txt").write_text("ignored")
        assert main([
            "perf", "record", "--results-dir", str(tmp_path),
            "--ledger", str(ledger),
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded 1 metric(s)" in out

    def test_legacy_bench_doc_warn_skipped(self, tmp_path, capsys):
        import json

        ledger = tmp_path / "ledger.jsonl"
        doc = tmp_path / "BENCH_old.json"
        doc.write_text(json.dumps({"name": "old", "text": "", "data": None}))
        assert main([
            "perf", "record", str(doc), "--ledger", str(ledger),
        ]) == 0
        captured = capsys.readouterr()
        assert "not a schema-2 BENCH document; skipped" in captured.err
        assert not ledger.exists()

    def test_record_the_repos_results(self, tmp_path, capsys):
        """Every BENCH file under benchmarks/results/ is schema 2 and is
        recorded; none is skipped, and nothing advises a re-run."""
        results = Path(__file__).parents[2] / "benchmarks" / "results"
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "perf", "record", "--results-dir", str(results), "--ledger", str(ledger),
        ]) == 0
        captured = capsys.readouterr()
        assert "recorded 45 metric(s)" in captured.out
        assert captured.err.count("not a schema-2 BENCH document; skipped") == 0
        assert "re-run" not in captured.err
