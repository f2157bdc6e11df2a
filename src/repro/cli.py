"""Command-line interface: regenerate the paper's evaluation from scratch.

``python -m repro experiments`` re-runs every table and figure of §4 and
prints a paper-vs-measured report in Markdown — EXPERIMENTS.md is exactly
this command's output. ``--quick`` trims sample counts for a fast smoke
run.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro import __version__
from repro.errors import ConfigError
from repro.lint.cli import add_lint_parser, lint_command
from repro.net.profiles import PROFILES, get_profile
from repro.parallel.spec import KINDS, RunSpec
from repro.storage import FSYNC_MODES

if TYPE_CHECKING:
    from repro.chaos.runner import ChaosOptions
    from repro.cluster.harness import Cluster


def experiments_command(args: argparse.Namespace) -> int:
    """Run the §4 grid once, print the report, and gate on the paper's
    claims: exit status 1 when any figure's check is non-empty."""
    from repro.experiments import FIGURES, figures_grid, report
    from repro.parallel.runner import run_grid

    started = time.time()
    results = run_grid(figures_grid(args.quick), workers=args.workers)
    print(report(results, time.time() - started))
    violations = [v for figure in FIGURES for v in figure.check(results)]
    for violation in violations:
        print(f"repro experiments: {violation}", file=sys.stderr)
    return 1 if violations else 0


def _one_kind_flags(requests: int) -> argparse.ArgumentParser:
    """The flags ``run``, ``trace`` and ``profile`` share (argparse parent):
    one cluster, every client sending one kind of request."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--profile", default="sysnet", choices=sorted(PROFILES),
        help="deployment profile (default: sysnet)",
    )
    flags.add_argument(
        "--kind", default="write", choices=KINDS,
        help="request kind for every client (default: write)",
    )
    flags.add_argument("--requests", type=int, default=requests,
                       help=f"total requests across all clients (default: {requests})")
    flags.add_argument("--clients", type=int, default=1,
                       help="closed-loop client count (default: 1)")
    flags.add_argument("--seed", type=int, default=0, help="simulation seed")
    flags.add_argument("--chrome", metavar="PATH",
                       help="write a Chrome trace-event JSON here (spans; under "
                            "'profile', per-actor sim-CPU counter tracks too)")
    flags.add_argument("--export", metavar="PATH",
                       help="write the JSONL timeline here (for 'repro report')")
    return flags


def _run_one_kind(args: argparse.Namespace, **spec_fields: Any) -> Cluster:
    """Build and run the cluster those flags describe; ``spec_fields`` are
    the :class:`ClusterSpec` fields the calling subcommand sets.

    ``groups > 1`` builds a sharded cluster: clients work a spread of KV
    keys (instead of the noop service's keyless ops, which would all land
    on group 0) so every replication group coordinates a slice of the
    traffic and the per-group report tables have something to show.
    """
    from repro.client.workload import single_kind_steps
    from repro.cluster.harness import Cluster, ClusterSpec
    from repro.services.kvstore import KVStoreService
    from repro.types import RequestKind

    spec = ClusterSpec(profile=get_profile(args.profile), seed=args.seed, **spec_fields)
    kind = RequestKind(args.kind)
    if args.requests < args.clients:
        raise ConfigError(
            f"--requests {args.requests} < --clients {args.clients}: "
            "each client needs at least one request"
        )
    # The first requests % clients clients send one extra: N requests in all.
    base, extra = divmod(args.requests, args.clients)
    counts = [base + (c < extra) for c in range(args.clients)]
    if spec.groups == 1:
        return Cluster(spec, [single_kind_steps(kind, n) for n in counts]).run()

    def op(index: int) -> tuple[str, ...]:
        key = f"k{index % (4 * spec.groups)}"
        if kind is RequestKind.READ:
            return ("get", key)
        return ("put", key, f"v{index}")

    steps = [single_kind_steps(kind, n, op=op) for n in counts]
    return Cluster(spec, steps, service_factory=KVStoreService).run()


def _write_artifacts(
    cluster: Cluster, args: argparse.Namespace, chrome_label: str = "chrome trace"
) -> None:
    """The ``--chrome`` / ``--export`` tail of those three subcommands."""
    if args.chrome:
        path = cluster.export_chrome(args.chrome)
        print(f"{chrome_label}: {path} (load at ui.perfetto.dev)")
    if args.export:
        path = cluster.export_timeline(args.export)
        print(f"timeline: {path}")


def run_command(args: argparse.Namespace) -> int:
    """One instrumented run: print the result summary, optionally export the
    JSONL timeline for ``repro report``."""
    from repro.cluster.metrics import collect

    cluster = _run_one_kind(
        args,
        tracing=args.tracing or bool(args.chrome),
        fsync=args.fsync,
        groups=args.groups,
    )
    print(collect(cluster).describe())
    _write_artifacts(cluster, args)
    return 0


def trace_command(args: argparse.Namespace) -> int:
    """Run one traced cluster and render per-request waterfalls plus the
    critical-path and §3.4 formula-conformance summaries."""
    from repro.analysis.model import LatencyModelInputs
    from repro.obs.report import critical_path_table
    from repro.obs.tracing import analyze_requests, conformance
    from repro.util.tables import format_table

    cluster = _run_one_kind(args, tracing=True)
    store = cluster.tracer.store
    shown = 0
    for root in store.roots():
        if root.kind != "request":
            continue
        if shown >= args.show:
            break
        print(store.tree(root.trace_id).render_waterfall())
        print()
        shown += 1

    print(critical_path_table(store))

    # Model inputs derived from the profile's paper RRTs (original = 2M + E,
    # write = 2M + E + 2m, with E = 0 in this command's workloads).
    paper_rrt = cluster.spec.profile.paper_rrt
    original = paper_rrt.get("original")
    write = paper_rrt.get("write")
    if original is not None and write is not None:
        model = LatencyModelInputs(
            client_replica=original / 2,
            replica_replica=(write - original) / 2,
            execute=0.0,
        )
        paths = analyze_requests(store)
        crows = []
        for k, row in conformance(
            paths, model, xpaxos_reads=cluster.spec.xpaxos_reads
        ).items():
            crows.append([k, row.formula, row.n,
                          f"{row.measured_mean * 1e3:.3f}",
                          f"{row.expected * 1e3:.3f}",
                          f"{row.deviation * 1e3:+.3f}"])
        if crows:
            print()
            print("Latency-formula conformance (§3.4, ms; model from paper RRTs)")
            print(format_table(["kind", "formula", "n", "measured", "model", "dev"],
                               crows))

    if args.chrome:
        print()
    _write_artifacts(cluster, args)
    return 0


def chaos_specs(
    options: ChaosOptions, seeds: range, keep_cluster: bool = False
) -> list[RunSpec]:
    """One ``chaos_result`` spec per seed. Each spec carries its own seed,
    so sharding the sweep across workers cannot skew any trial's nemesis
    schedule."""
    import dataclasses

    return [
        RunSpec(
            task="chaos_result",
            key=f"chaos/seed={seed:06d}",
            params={
                "seed": seed,
                "options": dataclasses.asdict(options),
                "keep_cluster": keep_cluster,
            },
        )
        for seed in seeds
    ]


def chaos_command(args: argparse.Namespace) -> int:
    """Fan a nemesis-schedule sweep over seeds, check invariants, report.

    Exit status 1 when any seed violated an invariant (CI gate)."""
    import dataclasses

    from repro.chaos.report import dump_summary, render_report, to_summary
    from repro.chaos.runner import ChaosOptions
    from repro.chaos.shrink import shrink
    from repro.parallel.runner import run_grid

    options = ChaosOptions(
        protocol=args.protocol,
        n_replicas=args.replicas,
        n_clients=args.clients,
        requests_per_client=args.requests,
        horizon=args.horizon,
        intensity=args.intensity,
        allow_majority_loss=args.allow_majority_loss,
        tracing=args.tracing,
        mutation=args.mutation,
        fsync=args.fsync,
        storage_faults=args.storage_faults,
        groups=args.groups,
    )
    workers = args.workers
    if workers > 1 and args.tracing:
        # Traced trials keep their cluster for waterfall rendering, which
        # cannot cross a process boundary.
        print("chaos: --tracing forces --workers 1", file=sys.stderr)
        workers = 1
    specs = chaos_specs(options, range(args.seed, args.seed + args.seeds), args.tracing)
    try:
        results = list(run_grid(specs, workers).values())
    except RuntimeError as exc:  # failed trials, one per line, or a dead worker
        for line in str(exc).splitlines():
            print(f"chaos: {line}", file=sys.stderr)
        return 2
    if not args.quiet:
        for result in results:
            if not result.ok:
                names = ",".join(sorted({v.invariant for v in result.violations}))
                print(f"seed {result.seed}: VIOLATION ({names})", file=sys.stderr)

    shrink_outcomes = []
    if args.shrink:
        for result in results:
            if result.ok:
                continue
            # Shrink without tracing: the minimization loop re-runs the
            # trial many times and only the final repro matters.
            outcome = shrink(
                result.schedule,
                dataclasses.replace(options, tracing=False),
                budget=args.shrink_budget,
            )
            shrink_outcomes.append(outcome)

    print(render_report(results, shrink_outcomes), end="")
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(dump_summary(to_summary(results, shrink_outcomes)))
        print(f"summary: {args.summary}")
    return 0 if all(r.ok for r in results) else 1


def profile_command(args: argparse.Namespace) -> int:
    """Profile one run: the hottest sim-CPU frames and (optionally) a
    collapsed flamegraph file plus a chrome trace with per-actor sim-CPU
    counter tracks."""
    from repro.obs.prof.export import frame_rows, write_collapsed
    from repro.obs.report import hottest_handlers_table

    cluster = _run_one_kind(
        args,
        execute_time=args.execute_time,
        profiling=True,
        tracing=bool(args.chrome),
    )
    print(hottest_handlers_table(frame_rows(cluster.profiler), top=args.top))
    if args.out:
        path = write_collapsed(cluster.profiler, args.out)
        print(f"\ncollapsed stacks (sim): {path} "
              "(render with flamegraph.pl or speedscope)")
    _write_artifacts(cluster, args, chrome_label="chrome trace with counter tracks")
    return 0


def perf_command(args: argparse.Namespace) -> int:
    """The perf-regression ledger: record BENCH results, show trends, gate CI."""
    from pathlib import Path

    from repro.obs.ledger import (
        append_records,
        bench_records,
        load_ledger,
        trends,
    )
    from repro.util.tables import format_table

    ledger = Path(args.ledger)

    if args.perf_command == "record":
        import json

        paths = [Path(p) for p in args.paths]
        if not paths:
            paths = sorted(Path(args.results_dir).glob("BENCH_*.json"))
        collected = []
        for path in paths:
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                print(f"repro perf: skipping {path}: {exc}", file=sys.stderr)
                continue
            records, warnings = bench_records(doc, source=str(path))
            for warning in warnings:
                print(f"repro perf: {warning}", file=sys.stderr)
            collected.extend(records)
        if not collected:
            print("repro perf: no schema-2 metrics found; nothing recorded")
            return 0
        count = append_records(ledger, collected)
        print(f"recorded {count} metric(s) into {ledger}")
        return 0

    records, skipped = load_ledger(ledger)
    if skipped:
        print(f"repro perf: skipped {skipped} malformed ledger line(s)",
              file=sys.stderr)
    rows = trends(
        records,
        min_history=args.min_history,
        mad_k=args.mad_k,
        rel_floor=args.rel_floor,
    )
    if not rows:
        print(f"perf ledger {ledger}: no trendable series")
        return 0

    table = [
        [
            t.bench, t.metric, t.n, t.direction,
            f"{t.center:.4g}", f"{t.last:.4g}",
            f"{t.delta_pct:+.1f}%" if t.center else "-",
            t.status,
        ]
        for t in rows
    ]
    print(f"perf ledger {ledger}")
    print(format_table(
        ["bench", "metric", "n", "dir", "median", "last", "delta", "status"], table
    ))

    if args.perf_command == "check":
        regressions = [t for t in rows if t.status == "regression"]
        for t in regressions:
            print(
                f"REGRESSION {t.bench}.{t.metric}: last={t.last:.4g} vs "
                f"median={t.center:.4g} ({t.delta_pct:+.1f}%, "
                f"allowed band ±{t.band:.4g}, {t.direction} is better)",
                file=sys.stderr,
            )
        if regressions:
            return 1
        print("perf check: no regressions")
    return 0


def report_command(args: argparse.Namespace) -> int:
    """Render tables from one JSONL export."""
    from repro.obs.report import render_report
    from repro.obs.timeline import load_export

    try:
        export = load_export(args.path)
    except (OSError, ValueError) as exc:
        print(f"repro report: error: {exc}", file=sys.stderr)
        return 2
    print(render_report(export))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Replicating Nondeterministic Services on "
        "Grid Environments' (HPDC 2006).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments", help="re-run every table/figure and print the report"
    )
    experiments.add_argument(
        "--quick", action="store_true", help="smaller sample counts (smoke run)"
    )
    experiments.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the run grid (default: 1, serial)",
    )

    sub.add_parser("profiles", help="list the calibrated deployment profiles")

    run = sub.add_parser(
        "run", parents=[_one_kind_flags(requests=100)],
        help="one instrumented run; export its timeline with --export",
    )
    run.add_argument("--groups", type=int, default=1,
                     help="replication groups per process (keyspace shards; "
                          ">1 switches to a keyed KV workload, default: 1)")
    run.add_argument("--fsync", default="async", choices=FSYNC_MODES,
                     help="stable-storage durability mode: fsync per barrier "
                          "or legacy write-through (default: async)")
    run.add_argument("--tracing", action="store_true",
                     help="record causal request spans (exported with --export; "
                          "implied by --chrome)")

    profile_parser = sub.add_parser(
        "profile", parents=[_one_kind_flags(requests=100)],
        help="profile one run: hottest sim-CPU frames, flamegraph",
    )
    profile_parser.add_argument("--execute-time", type=float, default=0.0,
                                help="modeled execution time E in seconds "
                                     "(default: 0)")
    profile_parser.add_argument("--top", type=int, default=10,
                                help="hottest-handlers rows to print "
                                     "(default: 10)")
    profile_parser.add_argument("--out", metavar="PATH",
                                help="write collapsed flamegraph stacks here "
                                     "(flamegraph.pl / speedscope input)")

    perf = sub.add_parser(
        "perf", help="perf-regression ledger: record results, trend, gate CI"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    default_ledger = "benchmarks/results/perf-ledger.jsonl"
    perf_record = perf_sub.add_parser(
        "record", help="ingest BENCH_*.json metrics into the ledger"
    )
    perf_record.add_argument("paths", nargs="*", metavar="BENCH_JSON",
                             help="BENCH files to ingest (default: every "
                                  "BENCH_*.json under --results-dir)")
    perf_record.add_argument("--results-dir", default="benchmarks/results",
                             help="directory scanned when no paths are given")
    perf_record.add_argument("--ledger", default=default_ledger,
                             help=f"ledger JSONL path (default: {default_ledger})")
    for name, help_text in (
        ("trend", "print per-metric trends (median + MAD noise bands)"),
        ("check", "exit 1 if the latest value of any metric regressed"),
    ):
        p = perf_sub.add_parser(name, help=help_text)
        p.add_argument("--ledger", default=default_ledger,
                       help=f"ledger JSONL path (default: {default_ledger})")
        p.add_argument("--min-history", type=int, default=3,
                       help="samples needed before the latest one is judged "
                            "(default: 3)")
        p.add_argument("--mad-k", type=float, default=3.0,
                       help="noise-band width in scaled MADs (default: 3.0)")
        p.add_argument("--rel-floor", type=float, default=0.10,
                       help="minimum band as a fraction of the median "
                            "(default: 0.10)")

    trace = sub.add_parser(
        "trace", parents=[_one_kind_flags(requests=10)],
        help="one traced run: per-request waterfalls + critical-path summary",
    )
    trace.add_argument("--show", type=int, default=3,
                       help="request waterfalls to print (default: 3)")

    report = sub.add_parser("report", help="render tables from a JSONL export")
    report.add_argument("path", metavar="EXPORT", help="the export to report on")

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault schedules + invariant checks over many seeds",
    )
    chaos.add_argument("--seeds", type=int, default=20,
                       help="number of seeds to sweep (default: 20)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="first seed of the sweep (default: 0)")
    chaos.add_argument("--protocol", default="basic",
                       choices=("basic", "xpaxos", "tpaxos"),
                       help="protocol under test (default: basic)")
    chaos.add_argument("--replicas", type=int, default=3,
                       help="replica count (default: 3)")
    chaos.add_argument("--groups", type=int, default=1,
                       help="replication groups per process (keyspace "
                            "shards; invariants run per group, default: 1)")
    chaos.add_argument("--clients", type=int, default=2,
                       help="client count (default: 2)")
    chaos.add_argument("--requests", type=int, default=12,
                       help="requests per client (default: 12)")
    chaos.add_argument("--horizon", type=float, default=2.0,
                       help="fault-injection window, simulated seconds (default: 2)")
    chaos.add_argument("--intensity", type=float, default=1.0,
                       help="fault event rate multiplier (default: 1.0)")
    chaos.add_argument("--allow-majority-loss", action="store_true",
                       help="let crash bursts take down a majority")
    chaos.add_argument("--fsync", default="async", choices=FSYNC_MODES,
                       help="replica durability mode (default: async; "
                            "storage faults need sync)")
    chaos.add_argument("--storage-faults", action="store_true",
                       help="also sample storage nemeses (torn writes, lying "
                            "fsyncs, disk stalls, record rot); requires "
                            "--fsync sync")
    chaos.add_argument("--mutation", choices=("minority-accept", "skip-fsync",
                                              "propose-stale", "recovery-skips-known-tail",
                                              "full-payload-leaks-txn"),
                       help="inject a deliberate protocol bug (validation runs)")
    chaos.add_argument("--shrink", action="store_true",
                       help="minimize each violating schedule to a small repro")
    chaos.add_argument("--shrink-budget", type=int, default=200,
                       help="max extra trials per shrink (default: 200)")
    chaos.add_argument("--tracing", action="store_true",
                       help="record causal spans; violations print waterfalls")
    chaos.add_argument("--summary", metavar="PATH",
                       help="write the machine-readable JSON summary here")
    chaos.add_argument("--quiet", action="store_true",
                       help="no per-seed progress lines on stderr")
    chaos.add_argument("--workers", type=int, default=1,
                       help="worker processes for the seed sweep (default: 1)")

    add_lint_parser(sub)

    args = parser.parse_args(argv)
    for flag in ("clients", "requests", "seeds", "workers"):
        value = getattr(args, flag, None)  # None: this command has no such flag
        if value is not None and value < 1:
            parser.error(f"--{flag} must be at least 1, got {value}")
    try:
        if args.command == "experiments":
            return experiments_command(args)
        if args.command == "profiles":
            for name, factory in PROFILES.items():
                profile = factory()
                print(f"{name}: {profile.description}")
                for kind, value in profile.paper_rrt.items():
                    print(f"    paper {kind} RRT: {value * 1e3:.3f} ms")
            return 0
        if args.command == "run":
            return run_command(args)
        if args.command == "trace":
            return trace_command(args)
        if args.command == "profile":
            return profile_command(args)
        if args.command == "perf":
            return perf_command(args)
        if args.command == "report":
            return report_command(args)
        if args.command == "chaos":
            return chaos_command(args)
        if args.command == "lint":
            return lint_command(args)
    except ConfigError as exc:
        parser.error(str(exc))  # bad input ends in "repro: error: ...", exit 2
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
