"""The project index: every file's facts, linked.

The index is what the rules query: a map of modules to
:class:`~repro.lint.graph.facts.FileFacts` plus the cross-file lookups
the whole-program rules need — dotted-symbol resolution through package
re-exports, class lookup, and method resolution over the class hierarchy.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.lint.context import FileContext
from repro.lint.graph.facts import ClassFacts, FileFacts, FunctionFacts, extract_facts

#: Symbol-resolution hop budget: re-export chains longer than this are a
#: cycle (``from .a import x`` <-> ``from .b import x``), not a symbol.
_MAX_HOPS = 16


@dataclass(slots=True)
class ProjectIndex:
    """All files' facts plus the cross-file resolution lookups."""

    files: dict[str, FileFacts] = field(default_factory=dict)   # rel -> facts
    modules: dict[str, FileFacts] = field(default_factory=dict)  # module -> facts

    # ---------------------------------------------------------------- build
    @classmethod
    def build(cls, contexts: dict[str, FileContext]) -> "ProjectIndex":
        """Build the index from parsed file contexts."""
        index = cls()
        for rel in sorted(contexts):
            facts = extract_facts(contexts[rel])
            index.files[rel] = facts
            index.modules[facts.module] = facts
        return index

    # -------------------------------------------------------------- lookups
    def functions(self) -> Iterator[tuple[str, FileFacts, FunctionFacts]]:
        """Every function as ``(dotted name, its file's facts, its facts)``,
        in sorted order — the iteration every rule's findings inherit."""
        for module in sorted(self.modules):
            facts = self.modules[module]
            for qualname in sorted(facts.functions):
                yield f"{module}.{qualname}", facts, facts.functions[qualname]

    def function(self, dotted: str) -> tuple[FileFacts, FunctionFacts] | None:
        """``repro.core.replica.Replica._on_prepare`` -> its facts pair."""
        module, _sep, qualname = dotted.rpartition(".")
        # Method: module.Class.method — the module is one segment shorter.
        facts = self.modules.get(module)
        if facts is not None and qualname in facts.functions:
            return facts, facts.functions[qualname]
        parent, _sep, cls_name = module.rpartition(".")
        facts = self.modules.get(parent)
        if facts is not None:
            method = f"{cls_name}.{qualname}"
            if method in facts.functions:
                return facts, facts.functions[method]
        return None

    def cls(self, dotted: str) -> tuple[FileFacts, ClassFacts] | None:
        module, _sep, name = dotted.rpartition(".")
        facts = self.modules.get(module)
        if facts is not None and name in facts.classes:
            return facts, facts.classes[name]
        return None

    def resolve_symbol(self, dotted: str | None) -> str | None:
        """Chase package re-exports until ``dotted`` names a real symbol.

        ``pkg.Finding``, bound by an import in ``pkg/__init__.py``,
        resolves to ``pkg.findings.Finding``. Returns the input
        unchanged when it already names an indexed class/function, or
        None when nothing in the project matches.
        """
        for _hop in range(_MAX_HOPS):
            if dotted is None:
                return None
            if self.cls(dotted) is not None or self.function(dotted) is not None:
                return dotted
            module, _sep, attr = dotted.rpartition(".")
            facts = self.modules.get(module)
            if facts is None or attr not in facts.imports:
                return None
            dotted = facts.imports[attr]
        return None

    def find_method(self, dotted_cls: str, name: str) -> str | None:
        """Resolve ``name`` on ``dotted_cls`` or its base-class chain."""
        seen: set[str] = set()
        queue = [dotted_cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            resolved = self.resolve_symbol(current)
            if resolved is None:
                continue
            pair = self.cls(resolved)
            if pair is None:
                continue
            facts, cls_facts = pair
            if name in cls_facts.methods:
                return f"{facts.module}.{cls_facts.name}.{name}"
            queue.extend(cls_facts.bases)
        return None

    def attr_type(self, dotted_cls: str, attr: str) -> str | None:
        """The constructor class assigned to ``self.<attr>`` on a class or
        its bases (``self.recovery = RecoveryCoordinator(self)``)."""
        seen: set[str] = set()
        queue = [dotted_cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            resolved = self.resolve_symbol(current)
            if resolved is None:
                continue
            pair = self.cls(resolved)
            if pair is None:
                continue
            _facts, cls_facts = pair
            for name, ctor in cls_facts.attr_types:
                if name == attr:
                    return self.resolve_symbol(ctor)
            queue.extend(cls_facts.bases)
        return None

    def message_classes(self) -> dict[str, tuple[FileFacts, ClassFacts]]:
        """Every indexed message dataclass, keyed by dotted name."""
        out: dict[str, tuple[FileFacts, ClassFacts]] = {}
        for module in sorted(self.modules):
            facts = self.modules[module]
            for name in sorted(facts.classes):
                cls_facts = facts.classes[name]
                if cls_facts.is_message:
                    out[f"{module}.{name}"] = (facts, cls_facts)
        return out
