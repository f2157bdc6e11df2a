"""DET001 — a deterministic layer reaches ambient nondeterminism.

A direct ``time.time()`` in ``core/`` and a helper chain
``replica.py -> util.helper -> time.time()`` are the same defect: the
replica diverges across hosts and runs while every file on the way looks
clean. One rule covers both, in ≥ 0 call-graph hops.

Algorithm — backward reachability over the call graph:

1. **Sources** are functions with a direct ambient call (the
   ``FunctionFacts.ambient`` sites: ``time.*``, ``random.*``, an unseeded
   ``random.Random()``, ``os.urandom``, ``uuid``, env reads). Module- and
   class-body code counts as the function ``<module>``.
2. **Taint** is the backward closure of the sources over the reverse
   edges: any function that can reach a source is tainted.
3. **Reporting**: a det-layer function is flagged at each of its own
   ambient calls (zero hops), and at the first call edge where taint
   *enters* from outside the deterministic layers — a tainted callee that
   itself lives in a det layer is that callee's own finding, so each
   laundering chain produces exactly one finding, at the boundary.

Every finding carries a BFS-shortest witness path from the flagged
function down to the ambient call, rendered hop by hop with file:line.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.context import DETERMINISTIC_LAYERS
from repro.lint.findings import Finding, Severity
from repro.lint.graph.base import ProjectContext, Rule


def compute_taint(
    project: ProjectContext,
) -> tuple[set[str], dict[str, tuple[str, int, int]]]:
    """(tainted nodes, direct-source node -> first ambient (target, line, col))."""
    graph = project.graph
    sources: dict[str, tuple[str, int, int]] = {}
    for node, _facts, fn in project.index.functions():
        if fn.ambient:
            sources[node] = min(fn.ambient, key=lambda site: (site[1], site[0]))
    tainted: set[str] = set()
    queue = sorted(sources)
    while queue:
        node = queue.pop(0)
        if node in tainted:
            continue
        tainted.add(node)
        for caller in graph.callers(node):
            if caller not in tainted:
                queue.append(caller)
    return tainted, sources


class AmbientReach(Rule):
    """DET001. The only net for its defect: a ``random.random()`` jitter on
    ``OmegaElector``'s tick timer — direct, or behind a ``repro.util``
    helper — leaves tier-1 green and both chaos byte-compares identical
    (seeded in ``test_lint_selfscan.py::TestSeededViolation``)."""

    rule_id = "DET001"
    severity = Severity.ERROR
    summary = (
        "deterministic-layer function reaches an ambient clock/RNG/env call, "
        "directly or through a helper chain"
    )
    rationale = (
        "Simulation layers (sim/, core/, net/, chaos/, election/, cluster/, "
        "storage/) must draw randomness and time from the injected world "
        "(kernel RNG streams, virtual clock). One ambient call — at the "
        "site or laundered through any helper chain — desynchronizes "
        "replicas and breaks seed-replayability, the exact failure mode "
        "§3.3 exists to prevent; no test or byte-compare sees it."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        index = project.index
        graph = project.graph
        tainted, sources = compute_taint(project)
        goals = set(sources)
        for node, facts, fn in index.functions():
            if facts.layer not in DETERMINISTIC_LAYERS:
                continue
            for target, line, col in fn.ambient:
                yield self.finding(
                    path=facts.rel,
                    line=line,
                    col=col,
                    message=(
                        f"ambient nondeterministic call {target}() in layer "
                        f"'{facts.layer}'; inject an RNG/clock from the world "
                        "instead"
                    ),
                    witness=(
                        f"{node} ({facts.rel}:{line})",
                        f"{target} ({facts.rel}:{line})",
                    ),
                )
            for callee, line in graph.callees(node):
                if callee not in tainted:
                    continue
                if index.function(callee)[0].layer in DETERMINISTIC_LAYERS:
                    continue  # the callee gets its own finding
                # The frontier function's call into the callee, the callee's
                # shortest path to a source, then the ambient call itself.
                path = graph.shortest_path(callee, goals)
                source = path[-1][0]
                target, at, _col = sources[source]
                witness = (
                    *graph.render_path([(node, line), *path]),
                    f"{target} ({index.function(source)[0].rel}:{at})",
                )
                yield self.finding(
                    path=facts.rel,
                    line=line,
                    message=(
                        f"{fn.qualname} reaches nondeterministic {target}() "
                        f"via {callee} ({len(witness) - 1} hop(s)); "
                        "deterministic layers must take time/randomness from "
                        "the simulation kernel"
                    ),
                    witness=witness,
                )
                break  # one finding per function: the first frontier edge
