"""``repro lint`` — AST-based determinism and protocol-invariant analysis.

Every guarantee this reproduction makes (byte-identical artifacts,
replayable schedules, the §3.3 "replicas apply the leader's chosen state"
contract) rests on house rules the runtime cannot check: RNGs and clocks
must be injected, messages must be immutable, JSON output must be
key-sorted. This package enforces those rules statically, at review time,
instead of leaving them to a flaky 50-seed chaos sweep.

Architecture:

* :mod:`repro.lint.context` — one parsed file: AST, import/alias
  resolution (absolute and relative), layer classification, suppression
  comments;
* :mod:`repro.lint.rules` — the plugin registry; each rule is a class
  with an id, severity, rationale and a ``check(ctx)`` generator;
* :mod:`repro.lint.graph` — the whole-program pass: per-file facts, the
  linked project index, the call graph, and the interprocedural rules
  (DET101, MSG101, MSG102, PROTO101) with witness-path reporting;
* :mod:`repro.lint.engine` — walks trees, runs rules (per-file phase,
  then whole-program phase), applies ``# lint: ignore[RULE] -- reason``
  suppressions and the baseline;
* :mod:`repro.lint.report` — text and byte-deterministic JSON reporters;
* :mod:`repro.lint.cli` — the ``repro lint`` subcommand.

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.engine import LintEngine, LintResult
from repro.lint.findings import Finding, Severity
from repro.lint.graph import (
    PROJECT_RULE_REGISTRY,
    CallGraph,
    ProjectContext,
    ProjectIndex,
    all_project_rules,
)
from repro.lint.report import render_json, render_text
from repro.lint.rules import RULE_REGISTRY, all_rules

__all__ = [
    "Baseline",
    "CallGraph",
    "Finding",
    "LintEngine",
    "LintResult",
    "PROJECT_RULE_REGISTRY",
    "ProjectContext",
    "ProjectIndex",
    "RULE_REGISTRY",
    "Severity",
    "all_project_rules",
    "all_rules",
    "render_json",
    "render_text",
]
