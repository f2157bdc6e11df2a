"""Lint reporters: human text and byte-deterministic JSON.

The JSON reporter is itself held to the linter's own DET003 standard:
sorted findings, sorted keys, no clocks, no absolute paths — two runs
over the same tree are byte-identical under any PYTHONHASHSEED.
"""

from __future__ import annotations

import json

from repro.lint.engine import LintResult

_REPORT_VERSION = 2


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding (followed by its
    indented witness path, if it has one) plus a summary."""
    lines: list[str] = []
    for finding in result.findings:
        lines.append(finding.render())
        lines.extend(finding.render_witness())
    lines.append(
        f"{len(result.findings)} finding(s) "
        f"({result.errors} error(s), {result.warnings} warning(s)) "
        f"in {result.files} file(s)"
    )
    return "\n".join(lines) + "\n"


def render_json(result: LintResult) -> str:
    """Machine-readable report; deterministic byte-for-byte."""
    document = {
        "version": _REPORT_VERSION,
        "tool": "repro-lint",
        "findings": [finding.as_dict() for finding in result.findings],
        "summary": {
            "files": result.files,
            "findings": len(result.findings),
            "errors": result.errors,
            "warnings": result.warnings,
        },
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def render_rules(rules: list) -> str:
    """The ``--list-rules`` catalogue: id, severity, summary, rationale."""
    blocks = []
    for rule in rules:
        blocks.append(
            f"{rule.rule_id} [{rule.severity}] {rule.summary}\n"
            f"    {rule.rationale}"
        )
    return "\n".join(blocks) + "\n"
