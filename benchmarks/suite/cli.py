"""Command line of the benchmark suite.

Three forms:

* ``--workload W --seed N --seconds S --trace 0|1`` — one run of one
  workload; the last line of output is the result object the driver reads.
* no ``--workload`` — the whole suite: every workload, untraced then traced,
  each run in a fresh child process, one at a time; ``--out`` saves it.
* ``--compare A.json B.json`` — judge B against A by the suite's bounds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time
from collections.abc import Mapping, Sequence

from benchmarks.suite import spec

ROOT = pathlib.Path(__file__).resolve().parents[2]
QUICK_SCALE = 0.1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run this one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="how long one untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--out", type=pathlib.Path, help="write the suite's results here (JSON)")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 10, minimum repeats, no traced pass; not comparable")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path, metavar=("A.json", "B.json"),
                        help="compare two --out files; exit non-zero if B is worse")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def _fmt(value: object) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_metrics(detail: Mapping[str, object]) -> None:
    """Every metric by name with unit, direction, bound, quartiles and count."""
    catalogue = spec.PER_LAYER_BY_NAME if detail["trace"] else spec.END_TO_END_BY_NAME
    print(f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
          f"{detail['repeats']} repeats, {detail['attempted']} attempted, "
          f"{detail['failed']} failed, correct={detail['correct']}")
    for problem in detail["problems"]:
        print(f"  PROBLEM {problem}")
    for name, m in detail["metrics"].items():
        metric = catalogue[name]
        bound = f"bound {metric.bound:.0%}" if metric.bound is not None else "no bound"
        print(f"  {name:<36} {_fmt(m['value']):>12} {m['unit']:<6} {metric.better:<6} {bound:<10} "
              f"q1 {_fmt(m['q1'])} q3 {_fmt(m['q3'])} n {m['n']}")


def run_one(args: argparse.Namespace, t0: float) -> int:
    from benchmarks.suite import runner  # imports the program: part of set-up

    scale = QUICK_SCALE if args.quick else 1.0
    if args.setup_probe:
        _, setup_s = runner.set_up(args.workload, args.seed, scale, t0)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        result = runner.run_traced(args.workload, args.seed, scale)
    else:
        result = runner.run_untraced(
            args.workload, args.seed, 0.0 if args.quick else args.seconds, scale, t0,
            setup_samples=1 if args.quick else runner.SETUP_SAMPLES,
        )
    detail = result.detail()
    print_metrics(detail)
    print("detail " + json.dumps(detail))
    print(result.last_line())
    return 0 if result.correct else 1


def _child(workload: str, args: argparse.Namespace, trace: int) -> tuple[dict[str, object], int]:
    """One run in a fresh interpreter; its output is echoed as it arrives."""
    command = [sys.executable, "-m", "benchmarks.suite", "--workload", workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    detail: dict[str, object] = {}
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        assert child.stdout is not None
        for line in child.stdout:
            if line.startswith("detail "):
                detail = json.loads(line[len("detail "):])
            elif not line.startswith("{"):
                sys.stdout.write(line)
                sys.stdout.flush()
    return detail, child.returncode


def run_suite(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    results: dict[str, object] = {}
    status = 0
    for workload in spec.WORKLOAD_NAMES:
        entry: dict[str, object] = {}
        for trace in (0,) if args.quick else (0, 1):
            detail, code = _child(workload, args, trace)
            if code != 0 or not detail:
                print(f"{workload} trace={trace}: FAILED (exit {code})")
                status = 1
            entry["layers" if trace else "end_to_end"] = detail
        results[workload] = entry
    document = {"schema": 1, "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
                "workloads": results}
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"suite finished in {time.perf_counter() - started:.0f} s, "
          f"{'FAILED' if status else 'all workloads correct'}")
    return status


def main(argv: Sequence[str] | None = None, t0: float | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from benchmarks.suite.compare import compare_files

        return compare_files(*args.compare)
    if args.workload is not None:
        return run_one(args, t0 if t0 is not None else time.perf_counter())
    return run_suite(args)
