#!/usr/bin/env python3
"""Count code lines: physical lines that carry a token, minus comments and
docstrings.

    python3 benchmarks/loc.py [path]          # default: src/repro

A line counts when at least one token other than a comment starts or
continues on it, and it is not part of a docstring (a bare string that
opens a module, class or function). Blank lines, comment-only lines and
docstrings are what a simplicity PR may grow freely; everything else is
code somebody has to read. Prints one row per file under ``path``, one
per package (first directory level) and the total. This is "the PR 13/15
counter" CHANGES.md has sized PRs with; two runs print identical bytes.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SILENT = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
})


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of one Python source file."""
    source = path.read_bytes()
    carrying: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _SILENT:
            carrying.update(range(token.start[0], token.end[0] + 1))
    return len(carrying - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/repro")
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    if not files:
        print(f"loc: no Python files under {root}", file=sys.stderr)
        return 2
    base = root.parent if root.is_file() else root
    packages: dict[str, int] = {}
    total = 0
    for path in files:
        count = code_lines(path)
        rel = path.relative_to(base)
        package = rel.parts[0] if len(rel.parts) > 1 else "."
        packages[package] = packages.get(package, 0) + count
        total += count
        print(f"{count:7d}  {rel}")
    print()
    for package in sorted(packages):
        print(f"{packages[package]:7d}  {package}/")
    print(f"{total:7d}  total ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
