"""The ``repro lint`` subcommand.

Exit codes follow the usual linter convention: 0 clean, 1 findings,
2 usage or I/O errors — CI gates on the exit status, tooling parses the
``--format json`` report.
"""

from __future__ import annotations

import argparse
import json
import sys


def add_lint_parser(sub: argparse._SubParsersAction) -> None:
    lint = sub.add_parser(
        "lint",
        help="AST-based determinism & protocol-invariant checks",
        description=(
            "Statically enforce the house rules no test can see broken: "
            "injected RNGs/clocks, sorted set iteration, transport-free "
            "core, paired sends and handlers, barriered acks. "
            "See docs/static-analysis.md."
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
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--graph", choices=("dot", "json"), metavar="FMT",
        help="export the message-flow graph (dot|json) instead of a report",
    )


def lint_command(args: argparse.Namespace) -> int:
    from repro.lint.engine import LintEngine
    from repro.lint.graph import all_project_rules
    from repro.lint.graph.msgflow import message_flow, render_dot
    from repro.lint.report import render_json, render_rules, render_text

    if args.list_rules:
        print(render_rules(all_project_rules()), end="")
        return 0

    engine = LintEngine()
    try:
        result = engine.check_paths(args.paths)
    except OSError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2

    if args.graph:
        flow = message_flow(engine.project)
        if args.graph == "dot":
            print(render_dot(flow), end="")
        else:
            print(json.dumps(flow, sort_keys=True, separators=(",", ":")))
    elif args.format == "json":
        print(render_json(result), end="")
    else:
        print(render_text(result), end="")
    return 0 if result.ok else 1
