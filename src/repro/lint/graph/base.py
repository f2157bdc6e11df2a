"""The project a scan analyses, and the one rule interface over it.

A rule is a query over a :class:`ProjectContext` — the parsed files, the
linked fact index and the call graph — run once per scan. A finding about
a call path carries a **witness**: the chain that makes the claim
checkable by a human reading the report.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.graph.callgraph import CallGraph
from repro.lint.graph.index import ProjectIndex


@dataclass(slots=True)
class ProjectContext:
    """Everything a rule sees: parsed files, linked facts, call graph."""

    contexts: dict[str, FileContext]
    index: ProjectIndex
    graph: CallGraph

    @classmethod
    def build(cls, contexts: dict[str, FileContext]) -> "ProjectContext":
        index = ProjectIndex.build(contexts)
        return cls(contexts=contexts, index=index, graph=CallGraph.build(index))


class Rule:
    """One lint rule: a stable id, a severity, and a check over the project.

    ``rationale`` ties the rule to the design or paper invariant it
    protects and names the defect it is the only net for — it feeds
    ``repro lint --list-rules`` and ``docs/static-analysis.md``.
    """

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    summary: str = ""
    rationale: str = ""

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        path: str,
        line: int,
        message: str,
        witness: tuple[str, ...] = (),
        col: int = 1,
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
            witness=witness,
        )
