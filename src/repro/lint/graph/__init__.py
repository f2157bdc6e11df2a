"""Whole-program analysis layer: facts, index, call graph, project rules.

Importing this package registers the project rules (DET101, MSG101,
MSG102, PROTO101) into :data:`~repro.lint.graph.base.PROJECT_RULE_REGISTRY`,
mirroring how :mod:`repro.lint.rules` registers the per-file rules.
"""

from repro.lint.graph import msgflow, taint  # noqa: F401  (rule registration)
from repro.lint.graph.base import (
    PROJECT_RULE_REGISTRY,
    ProjectContext,
    ProjectRule,
    all_project_rules,
    register_project,
)
from repro.lint.graph.callgraph import CallGraph
from repro.lint.graph.facts import FileFacts, extract_facts, module_of
from repro.lint.graph.index import ProjectIndex
from repro.lint.graph.msgflow import message_flow, render_dot

__all__ = [
    "PROJECT_RULE_REGISTRY",
    "ProjectContext",
    "ProjectRule",
    "all_project_rules",
    "register_project",
    "CallGraph",
    "FileFacts",
    "extract_facts",
    "module_of",
    "ProjectIndex",
    "message_flow",
    "render_dot",
]
