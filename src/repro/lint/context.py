"""One parsed file: AST, import table and architectural layer.

The context is built once per file; fact extraction and the rules that
read syntax share it, so the tree is parsed once and the import table is
resolved once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

#: Directories under the ``repro`` package whose code runs inside the
#: deterministic simulation and therefore may not touch ambient
#: nondeterminism (wall clocks, unseeded RNGs, process entropy).
DETERMINISTIC_LAYERS = frozenset(
    {"sim", "core", "net", "chaos", "election", "cluster", "storage"}
)


def layer_of(rel_path: str) -> str | None:
    """The architectural layer a file belongs to.

    The layer is the path segment directly below the ``repro`` package
    directory (``src/repro/core/replica.py`` -> ``core``). Trees that do
    not contain a ``repro`` segment (test fixtures) fall back to the first
    directory under the scan root, so fixture layouts like
    ``<tmp>/core/mod.py`` classify the same way.
    """
    parts = PurePosixPath(rel_path).parts
    if "repro" in parts[:-1]:
        anchor = len(parts) - 2 - parts[:-1][::-1].index("repro")
        below = parts[anchor + 1 :]
        return below[0] if len(below) > 1 else None
    return parts[0] if len(parts) > 1 else None


def _module_package(rel_path: str) -> tuple[str, ...]:
    """Dotted-package parts of a module file, for relative-import resolution.

    Both ``pkg/mod.py`` and ``pkg/__init__.py`` resolve level-1 imports
    against ``pkg``, so the package is simply the containing directory.
    """
    parts = list(PurePosixPath(rel_path).parts)
    if parts and parts[-1].endswith(".py"):
        parts.pop()
    return tuple(parts)


@dataclass(slots=True)
class FileContext:
    """Everything the analysis needs to know about one source file."""

    rel: str
    tree: ast.Module
    layer: str | None = None
    imports: dict[str, str] = field(default_factory=dict)
    #: Lazily computed flat node list shared by every rule (see ``walk``).
    _nodes: tuple[ast.AST, ...] | None = None

    @classmethod
    def parse(cls, source: str, rel: str) -> "FileContext":
        """Build a context; raises ``SyntaxError`` on unparseable source."""
        tree = ast.parse(source, filename=rel)
        ctx = cls(rel=rel, tree=tree, layer=layer_of(rel))
        ctx._collect_imports()
        return ctx

    # ------------------------------------------------------------- imports
    def _collect_imports(self) -> None:
        package = _module_package(self.rel)
        for node in self.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a`` (to package a); with an
                    # asname it binds the full dotted module.
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(node, package)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    @staticmethod
    def _resolve_from_base(node: ast.ImportFrom, package: tuple[str, ...]) -> str:
        if not node.level:
            return node.module or ""
        # Relative import: climb ``level - 1`` packages above this module's
        # package, then descend into ``node.module``.
        anchor = package[: len(package) - (node.level - 1)] if node.level > 1 else package
        parts = list(anchor)
        if node.module:
            parts.extend(node.module.split("."))
        return ".".join(parts)

    def walk(self) -> tuple[ast.AST, ...]:
        """Every node of the tree, walked once and shared by the rules
        that read syntax, in ``ast.walk`` (breadth-first) order."""
        if self._nodes is None:
            self._nodes = tuple(ast.walk(self.tree))
        return self._nodes

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted origin of a name/attribute chain, through import aliases.

        ``random.Random`` (after ``import random``) -> ``"random.Random"``;
        ``Random`` (after ``from random import Random``) -> the same.
        Returns ``None`` for anything that is not a resolvable chain
        (calls on call results, subscripts, locals the file never imported).
        """
        chain: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.imports.get(current.id, current.id)
        chain.append(root)
        return ".".join(reversed(chain))
