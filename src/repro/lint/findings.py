"""Finding and severity types shared by the engine, rules and reporters."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How a finding affects the exit status.

    Both levels are reported and both fail the run (the linter's job is to
    keep the tree clean, not to accumulate warnings); the distinction
    exists so reporters can tell hard invariant violations from hygiene
    issues.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is posix-style and relative to the scan root so reports are
    byte-identical across machines and working directories. A finding
    about a call path carries a ``witness`` — the rendered chain
    (``name (file:line)`` hops) that substantiates the claim; a finding
    about one line of syntax leaves it empty.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    witness: tuple[str, ...] = ()

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"

    def render_witness(self) -> list[str]:
        """Indented witness-path lines for the text reporter."""
        lines: list[str] = []
        for i, hop in enumerate(self.witness):
            marker = "   witness:" if i == 0 else "        ->"
            lines.append(f"{marker} {hop}")
        return lines

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "witness": list(self.witness),
        }

