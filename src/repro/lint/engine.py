"""The lint engine: file discovery, rule execution, suppressions, baseline.

The engine is deliberately boring and deterministic: files are visited in
sorted order, findings are sorted by location, and nothing reads clocks —
so two runs over the same tree produce byte-identical reports regardless
of PYTHONHASHSEED (the same property the rules themselves enforce).

Tree scans run in **two phases**. Phase one parses every file once and
runs the per-file rules. Phase two distills the retained contexts into a
:class:`~repro.lint.graph.index.ProjectIndex`, links the call graph, and
runs the whole-program rules (DET101, MSG101, MSG102, PROTO101) over it.
Suppression accounting (LINT001/LINT002) is deferred until after phase
two so a ``# lint: ignore[DET101]`` on a project-rule finding counts as
used; the baseline is applied last, over both phases' findings at once,
with one global budget.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity, fingerprint, legacy_fingerprint
from repro.lint.graph.base import ProjectContext
from repro.lint.graph.callgraph import CallGraph
from repro.lint.graph.index import ProjectIndex
from repro.lint.rules import all_rules

#: Meta-rule ids emitted by the engine itself (not by plugins).
PARSE_ERROR = "LINT000"
BAD_SUPPRESSION = "LINT001"
UNUSED_SUPPRESSION = "LINT002"

META_RULES = {
    PARSE_ERROR: "file does not parse (reported, never crashes the run)",
    BAD_SUPPRESSION: "malformed suppression: missing reason or unknown rule id",
    UNUSED_SUPPRESSION: "suppression comment that suppresses nothing",
}


@dataclass(slots=True)
class LintResult:
    """Everything one engine run produced."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    baselined: int = 0
    #: Fingerprint of every kept finding, for --write-baseline.
    fingerprints: list[str] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        return not self.findings


class LintEngine:
    """Runs the registered rules over source trees or raw source strings."""

    def __init__(
        self,
        rules: Sequence | None = None,
        baseline: Baseline | None = None,
        select: Iterable[str] | None = None,
        project_rules: Sequence | None = None,
    ) -> None:
        from repro.lint.graph import all_project_rules

        self.rules = list(rules) if rules is not None else all_rules()
        self.project_rules = (
            list(project_rules) if project_rules is not None else all_project_rules()
        )
        if select is not None:
            wanted = set(select)
            known = (
                {rule.rule_id for rule in self.rules}
                | {rule.rule_id for rule in self.project_rules}
                | set(META_RULES)
            )
            unknown = wanted - known
            if unknown:
                raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
            self.rules = [rule for rule in self.rules if rule.rule_id in wanted]
            self.project_rules = [
                rule for rule in self.project_rules if rule.rule_id in wanted
            ]
        self.baseline = baseline
        #: The last tree scan's linked view, for ``--graph`` exports.
        self.project: ProjectContext | None = None

    def known_rule_ids(self) -> set[str]:
        return (
            {rule.rule_id for rule in self.rules}
            | {rule.rule_id for rule in self.project_rules}
            | set(META_RULES)
        )

    # ----------------------------------------------------------- execution
    def check_source(
        self, source: str, rel: str, result: LintResult | None = None
    ) -> list[Finding]:
        """Lint one in-memory source file with the **per-file** rules only
        (whole-program rules need a whole program — see :meth:`check_paths`);
        returns its (sorted) findings.

        ``result``, when given, accrues the suppressed/baselined counters.
        """
        counters = result if result is not None else LintResult()
        ctx = self._parse(source, rel)
        if isinstance(ctx, Finding):
            return [ctx]
        kept = self._file_findings(ctx, counters)
        kept.extend(self._suppression_findings(ctx))
        kept = self._finish(kept, {rel: ctx}, counters)
        return kept

    def _parse(self, source: str, rel: str) -> FileContext | Finding:
        try:
            return FileContext.parse(source, rel)
        except SyntaxError as exc:
            return Finding(
                rule=PARSE_ERROR,
                severity=Severity.ERROR,
                path=rel,
                line=exc.lineno or 1,
                col=(exc.offset or 0) or 1,
                message=f"syntax error: {exc.msg}",
            )

    def _file_findings(self, ctx: FileContext, counters: LintResult) -> list[Finding]:
        """Per-file rule findings with suppressions applied (phase one)."""
        raw: list[Finding] = []
        for rule in self.rules:
            raw.extend(rule.check(ctx))
        kept: list[Finding] = []
        for finding in raw:
            if ctx.suppressed(finding.rule, finding.line):
                counters.suppressed += 1
            else:
                kept.append(finding)
        return kept

    def _finish(
        self,
        findings: list[Finding],
        contexts: dict[str, FileContext],
        counters: LintResult,
    ) -> list[Finding]:
        """Sort, apply the baseline globally, and collect fingerprints."""
        findings.sort(key=lambda f: f.sort_key)
        kept: list[Finding] = []
        budget = dict(self.baseline.fingerprints) if self.baseline is not None else {}
        for finding in findings:
            ctx = contexts.get(finding.path)
            line_text = ctx.line_text(finding.line) if ctx is not None else ""
            symbol = ctx.symbol_at(finding.line) if ctx is not None else "<module>"
            key = fingerprint(finding, line_text, symbol)
            legacy = legacy_fingerprint(finding, line_text)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                counters.baselined += 1
            elif budget.get(legacy, 0) > 0:
                budget[legacy] -= 1
                counters.baselined += 1
            else:
                kept.append(finding)
                counters.fingerprints.append(key)
        return kept

    def _suppression_findings(self, ctx: FileContext) -> list[Finding]:
        known = self.known_rule_ids()
        findings: list[Finding] = []
        for suppression in ctx.suppressions.values():
            if not suppression.rules:
                findings.append(
                    Finding(
                        rule=BAD_SUPPRESSION,
                        severity=Severity.ERROR,
                        path=ctx.rel,
                        line=suppression.line,
                        col=1,
                        message="suppression names no rules: use "
                        "# lint: ignore[RULE] -- reason",
                    )
                )
                continue
            unknown = [
                rule
                for rule in suppression.rules
                if rule != "*" and rule not in known
            ]
            if unknown:
                findings.append(
                    Finding(
                        rule=BAD_SUPPRESSION,
                        severity=Severity.ERROR,
                        path=ctx.rel,
                        line=suppression.line,
                        col=1,
                        message=f"suppression names unknown rule(s) "
                        f"{', '.join(unknown)}",
                    )
                )
            if not suppression.reason:
                findings.append(
                    Finding(
                        rule=BAD_SUPPRESSION,
                        severity=Severity.ERROR,
                        path=ctx.rel,
                        line=suppression.line,
                        col=1,
                        message="suppression requires a reason: "
                        "# lint: ignore[RULE] -- why this is safe",
                    )
                )
            elif not suppression.used and not unknown:
                findings.append(
                    Finding(
                        rule=UNUSED_SUPPRESSION,
                        severity=Severity.WARNING,
                        path=ctx.rel,
                        line=suppression.line,
                        col=1,
                        message=f"suppression for "
                        f"{', '.join(suppression.rules)} matches no finding "
                        "on this line; delete it",
                    )
                )
        return findings

    # ----------------------------------------------------------- discovery
    def check_paths(self, paths: Sequence[str | Path]) -> LintResult:
        """Lint files and directory trees; paths are reported relative to
        the scanned root that contained them.

        Runs both phases: per-file rules while parsing, then the
        whole-program rules over the linked project index.
        """
        result = LintResult()
        contexts: dict[str, FileContext] = {}
        pending: list[Finding] = []
        for root, file in self._discover(paths):
            # Directory scans report paths relative to the scanned root;
            # explicit files keep the path as given (so layer classification
            # still sees the package directories above the file).
            rel = file.relative_to(root).as_posix() if root != file else file.as_posix()
            source = file.read_text(encoding="utf-8")
            result.files += 1
            ctx = self._parse(source, rel)
            if isinstance(ctx, Finding):
                pending.append(ctx)
                continue
            contexts[rel] = ctx
            pending.extend(self._file_findings(ctx, result))

        pending.extend(self._project_findings(contexts, result))

        # Suppression accounting runs only now, after both phases have had
        # the chance to mark their suppressions used.
        for rel in sorted(contexts):
            pending.extend(self._suppression_findings(contexts[rel]))

        result.findings = self._finish(pending, contexts, result)
        return result

    def _project_findings(
        self, contexts: dict[str, FileContext], result: LintResult
    ) -> list[Finding]:
        """Phase two: index, link, and run the whole-program rules."""
        if not contexts:
            return []
        index = ProjectIndex.build(contexts)
        graph = CallGraph.build(index)
        self.project = ProjectContext(index=index, graph=graph)
        kept: list[Finding] = []
        for rule in self.project_rules:
            for finding in rule.check(self.project):
                ctx = contexts.get(finding.path)
                if ctx is not None and ctx.suppressed(finding.rule, finding.line):
                    result.suppressed += 1
                else:
                    kept.append(finding)
        return kept

    @staticmethod
    def _discover(paths: Sequence[str | Path]) -> list[tuple[Path, Path]]:
        pairs: list[tuple[Path, Path]] = []
        for raw in paths:
            path = Path(raw)
            if not path.exists():
                raise FileNotFoundError(f"no such file or directory: {path}")
            if path.is_dir():
                pairs.extend(
                    (path, file)
                    for file in sorted(path.rglob("*.py"))
                    if "__pycache__" not in file.parts
                    and not any(part.endswith(".egg-info") for part in file.parts)
                )
            else:
                pairs.append((path, path))
        return pairs
