"""Module-qualified call graph over the project index.

Nodes are dotted function names (``repro.core.replica.Replica.choose``);
edges carry the call-site line so witness paths point at real source
locations. Resolution is deliberately conservative — an edge exists only
when the callee can be named with confidence:

* plain names, through the file's import table and module-level defs;
* ``self.method()`` / ``cls.method()``, through the enclosing class and
  its resolved base-class chain (so ``Replica.send`` finds
  ``sim.process.Process.send``);
* ``self.attr.method()``, through the ``self.attr = Ctor(...)`` wiring
  recorded in the class facts (``self.recovery.on_promise`` resolves to
  ``RecoveryCoordinator.on_promise``);
* ``local.method()``, through simple local constructor assignments;
* constructor calls, edged to the class's ``__init__`` when it has one.

Unresolvable calls are dropped, never guessed — the analysis
under-approximates reachability, which for lint rules means missed
findings, not false ones. Iteration and adjacency are sorted, so every
traversal (and therefore every witness path) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.graph.facts import FileFacts, FunctionFacts
from repro.lint.graph.index import ProjectIndex

#: Resolved-name suffixes that are never project functions; skipping them
#: early keeps the edge list small.
_BUILTIN_ROOTS = frozenset(
    {"isinstance", "len", "sorted", "tuple", "list", "dict", "set", "max",
     "min", "range", "enumerate", "zip", "print", "super", "getattr",
     "setattr", "hasattr", "frozenset", "str", "int", "float", "bool",
     "repr", "iter", "next", "sum", "any", "all", "map", "filter"}
)


@dataclass(slots=True)
class CallGraph:
    """Forward and reverse adjacency with call-site lines."""

    index: ProjectIndex
    #: caller -> sorted tuple of (callee, line)
    edges: dict[str, tuple[tuple[str, int], ...]] = field(default_factory=dict)
    #: callee -> sorted tuple of callers
    redges: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def build(cls, index: ProjectIndex) -> "CallGraph":
        graph = cls(index=index)
        forward: dict[str, dict[tuple[str, int], None]] = {}
        reverse: dict[str, dict[str, None]] = {}
        for caller, facts, fn in index.functions():
            out = forward.setdefault(caller, {})
            for callee, line in _resolve_calls(index, facts, fn):
                out[(callee, line)] = None
                reverse.setdefault(callee, {})[caller] = None
        graph.edges = {
            caller: tuple(sorted(targets)) for caller, targets in forward.items()
        }
        graph.redges = {
            callee: tuple(sorted(callers)) for callee, callers in reverse.items()
        }
        return graph

    # ------------------------------------------------------------ traversal
    def callees(self, node: str) -> tuple[tuple[str, int], ...]:
        return self.edges.get(node, ())

    def callers(self, node: str) -> tuple[str, ...]:
        return self.redges.get(node, ())

    def nodes(self) -> list[str]:
        return sorted(self.edges)

    def reachable_from(
        self, roots: list[str], blocked: frozenset[str] = frozenset()
    ) -> list[str]:
        """Forward closure of ``roots`` (roots included), never entering
        ``blocked`` nodes, nearest first (breadth-first order)."""
        order: list[str] = []
        seen = set(blocked)
        queue = sorted(roots)
        while queue:
            node = queue.pop(0)
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            queue.extend(callee for callee, _line in self.callees(node))
        return order

    def shortest_path(
        self,
        start: str,
        goals: set[str],
        blocked: frozenset[str] = frozenset(),
    ) -> list[tuple[str, int]] | None:
        """BFS witness ``[(node, line-of-call-into-next), ..., (goal, 0)]``.

        Deterministic: neighbors expand in sorted order, so ties always
        break the same way regardless of hash seed.
        """
        if start in blocked:
            return None
        if start in goals:
            return [(start, 0)]
        parents: dict[str, tuple[str, int]] = {}
        seen = {start}
        queue = [start]
        while queue:
            node = queue.pop(0)
            for callee, line in self.callees(node):
                if callee in seen or callee in blocked:
                    continue
                seen.add(callee)
                parents[callee] = (node, line)
                if callee in goals:
                    return self._unwind(start, callee, parents)
                queue.append(callee)
        return None

    def _unwind(
        self, start: str, goal: str, parents: dict[str, tuple[str, int]]
    ) -> list[tuple[str, int]]:
        path: list[tuple[str, int]] = [(goal, 0)]
        node = goal
        while node != start:
            node, line = parents[node]
            path.append((node, line))
        path.reverse()
        return path

    def render_path(self, path: list[tuple[str, int]]) -> tuple[str, ...]:
        """Human-readable witness: ``name (file:line-of-the-call)`` hops."""
        rendered: list[str] = []
        for i, (node, _line) in enumerate(path):
            pair = self.index.function(node)
            if pair is None:
                rendered.append(node)
                continue
            facts, fn = pair
            # Each hop points at the line where it calls the *next* hop;
            # the final hop points at its own definition.
            line = path[i][1] if i < len(path) - 1 else fn.line
            rendered.append(f"{node} ({facts.rel}:{line})")
        return tuple(rendered)


def _resolve_calls(
    index: ProjectIndex, facts: FileFacts, fn: FunctionFacts
) -> list[tuple[str, int]]:
    """Resolved (callee, line) pairs for one function's call sites."""
    out: list[tuple[str, int]] = []
    local_types = dict(fn.local_types)
    own_class = f"{facts.module}.{fn.cls}" if fn.cls else None
    for call in fn.calls:
        chain = call.chain
        if not chain or chain[0] in _BUILTIN_ROOTS:
            continue
        callee: str | None = None
        if chain[0] in ("self", "cls") and own_class is not None:
            if len(chain) == 2:
                callee = index.find_method(own_class, chain[1])
            elif len(chain) == 3:
                attr_cls = index.attr_type(own_class, chain[1])
                if attr_cls is not None:
                    callee = index.find_method(attr_cls, chain[2])
        elif len(chain) == 2 and chain[0] in local_types:
            local_cls = index.resolve_symbol(local_types[chain[0]])
            if local_cls is not None:
                callee = index.find_method(local_cls, chain[1])
        if callee is None and call.target is not None:
            resolved = index.resolve_symbol(call.target)
            if resolved is not None:
                if index.function(resolved) is not None:
                    callee = resolved
                else:
                    pair = index.cls(resolved)
                    if pair is not None:
                        # Constructor: edge into __init__ when defined.
                        ctor = index.find_method(resolved, "__init__")
                        callee = ctor
        if callee is not None:
            out.append((callee, call.line))
    return out
