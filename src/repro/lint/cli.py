"""The ``repro lint`` subcommand.

Exit codes follow the usual linter convention: 0 clean, 1 findings,
2 usage or I/O errors — CI gates on the exit status, tooling parses the
``--format json`` report.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lint.baseline import Baseline
from repro.lint.engine import LintEngine
from repro.lint.graph import all_project_rules, message_flow, render_dot
from repro.lint.report import render_json, render_rules, render_text
from repro.lint.rules import all_rules


def add_lint_parser(sub: argparse._SubParsersAction) -> None:
    lint = sub.add_parser(
        "lint",
        help="AST-based determinism & protocol-invariant checks",
        description=(
            "Statically enforce the repo's determinism house rules: "
            "injected RNGs/clocks, frozen messages, sorted JSON, "
            "transport-free core. See docs/static-analysis.md."
        ),
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is byte-deterministic)",
    )
    lint.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--baseline", metavar="FILE",
        help="tolerate findings recorded in this baseline file",
    )
    lint.add_argument(
        "--write-baseline", metavar="FILE",
        help="record current findings as the new baseline and exit 0",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--graph", choices=("dot", "json"), metavar="FMT",
        help="export the message-flow graph (dot|json) instead of a report",
    )


def lint_command(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(render_rules(all_rules() + all_project_rules()), end="")
        return 0

    baseline = None
    if args.baseline and not args.write_baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro lint: error: {exc}", file=sys.stderr)
            return 2

    select = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]

    try:
        engine = LintEngine(baseline=baseline, select=select)
    except ValueError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2

    try:
        result = engine.check_paths(args.paths)
    except (OSError, FileNotFoundError) as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2

    if args.graph:
        project = engine.project
        if project is None:
            print("repro lint: error: --graph needs at least one parsed file",
                  file=sys.stderr)
            return 2
        flow = message_flow(project)
        if args.graph == "dot":
            print(render_dot(flow), end="")
        else:
            print(json.dumps(flow, sort_keys=True, separators=(",", ":")))
        return 0 if result.ok else 1

    if args.write_baseline:
        path = Baseline.from_fingerprints(result.fingerprints).write(
            args.write_baseline
        )
        print(f"baseline: {path} ({len(result.findings)} finding(s) recorded)")
        return 0

    if args.format == "json":
        print(render_json(result), end="")
    else:
        print(render_text(result), end="")
    return 0 if result.ok else 1
