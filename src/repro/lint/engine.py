"""The lint engine: file discovery and the one analysis phase.

A scan is ``parse -> FileFacts -> index + call graph -> rules``: every
file is parsed once, the parsed files are linked into a
:class:`~repro.lint.graph.base.ProjectContext`, and every rule is a query
over that project. The engine is deliberately boring and deterministic:
files are visited in sorted order, findings are sorted by location, and
nothing reads clocks — so two runs over the same tree produce
byte-identical reports regardless of PYTHONHASHSEED (the same property
the rules themselves enforce).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.graph import all_project_rules
from repro.lint.graph.base import ProjectContext

#: The one finding the engine emits itself: a file that does not parse is
#: reported, never crashes the run.
PARSE_ERROR = "LINT000"


@dataclass(slots=True)
class LintResult:
    """Everything one engine run produced."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0

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
    """Runs every rule over source trees or in-memory sources."""

    def __init__(self) -> None:
        #: The last scan's linked view, for ``--graph`` exports.
        self.project: ProjectContext | None = None

    def check_sources(self, sources: Mapping[str, str]) -> LintResult:
        """Lint a project given as ``{scan-root-relative path: source}``."""
        result = LintResult(files=len(sources))
        contexts: dict[str, FileContext] = {}
        for rel in sorted(sources):
            try:
                contexts[rel] = FileContext.parse(sources[rel], rel)
            except SyntaxError as exc:
                result.findings.append(
                    Finding(
                        rule=PARSE_ERROR,
                        severity=Severity.ERROR,
                        path=rel,
                        line=exc.lineno or 1,
                        col=exc.offset or 1,
                        message=f"syntax error: {exc.msg}",
                    )
                )
        self.project = ProjectContext.build(contexts)
        for rule in all_project_rules():
            result.findings.extend(rule.check(self.project))
        result.findings.sort(key=lambda f: f.sort_key)
        return result

    def check_paths(self, paths: Sequence[str | Path]) -> LintResult:
        """Lint files and directory trees; paths are reported relative to
        the scanned root that contained them."""
        sources: dict[str, str] = {}
        for raw in paths:
            root = Path(raw)
            if not root.exists():
                raise FileNotFoundError(f"no such file or directory: {root}")
            if root.is_dir():
                for file in sorted(root.rglob("*.py")):
                    if "__pycache__" in file.parts or any(
                        part.endswith(".egg-info") for part in file.parts
                    ):
                        continue
                    rel = file.relative_to(root).as_posix()
                    sources[rel] = file.read_text(encoding="utf-8")
            else:
                # An explicit file keeps the path as given, so layer
                # classification still sees the package directories above it.
                sources[root.as_posix()] = root.read_text(encoding="utf-8")
        return self.check_sources(sources)
