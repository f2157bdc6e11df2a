"""Message-flow conformance: send/handler pairing and durability barriers.

Two rules over the indexed message dataclasses, send sites and handlers:

* **MSG102** — flow mismatches: a message type that is sent somewhere but
  dispatched by no handler anywhere (the send can never be acted on), a
  handler dispatching a type nothing in the project constructs, and a
  message class nothing constructs at all (dead protocol surface).
* **PROTO101** — a handler that is not itself a barrier function and
  whose barrier-free reachable set holds both a safety-critical stable
  write (``accept`` / ``record_promise`` / ``record_round``) and the send
  of an acknowledgement (``Promise`` / ``AcceptedBatch``): nothing on the
  way routes through ``store.flush`` / ``store.needs_barrier``, so the ack
  can leave before the write is durable — the crash bug §3.2's
  stable-storage contract exists to prevent.

The module also builds the ``--graph`` export: the send/handle bipartite
flow between functions and message types, as sorted JSON or Graphviz DOT.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.graph.base import ProjectContext, Rule
from repro.lint.graph.index import ProjectIndex

#: Acknowledgements whose transmission promises durable state to a peer.
ACK_MESSAGES = frozenset({"Promise", "AcceptedBatch"})


def _basename(dotted: str | None) -> str | None:
    return dotted.rpartition(".")[2] if dotted else None


def _resolve_message(index: ProjectIndex, dotted: str | None) -> str | None:
    """Resolve a name to an indexed message class, or None.

    Falls back to matching a bare (dotless) name against the message
    vocabulary when the import table cannot resolve it — under
    ``from __future__ import annotations`` a handler's parameter
    annotation parses fine without the import, and message class names
    are unique, so an unambiguous basename match is safe.
    """
    messages = index.message_classes()
    resolved = index.resolve_symbol(dotted)
    if resolved is not None:
        return resolved if resolved in messages else None
    if dotted and "." not in dotted:
        matches = [m for m in messages if m.rpartition(".")[2] == dotted]
        if len(matches) == 1:
            return matches[0]
    return None


class SendHandlerPairing(Rule):
    """MSG102. The only net for dead protocol surface — no run can see
    code that never executes: a ``DISPATCH`` row and handler for a class
    nothing constructs, or a message class nothing constructs at all
    (seeded in ``test_lint_selfscan.py::TestSeededViolation``; the rule's
    lifetime true positives are ``Chosen``, ``Accept`` and ``Accepted``).
    It does not model ``DISPATCH`` routing: an annotated ``_on_*`` method
    counts as a handler even when its row is gone (tier-1 reports that)."""

    rule_id = "MSG102"
    severity = Severity.ERROR
    summary = "message type sent but never handled, or never constructed"
    rationale = (
        "A send with no dispatching handler is protocol intent that can "
        "never execute; a handler for a type nothing constructs, or a "
        "message class nothing constructs, is dead protocol surface that "
        "silently rots — each means the message flow diverges from the "
        "design, and no test or chaos run can see code that never runs."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        index = project.index
        messages = index.message_classes()
        handled = _handled_types(index)
        constructed = _constructed_types(index)
        for _node, facts, fn in index.functions():
            for send in fn.sends:
                resolved = index.resolve_symbol(send.msg)
                if resolved not in messages or resolved in handled:
                    continue
                yield self.finding(
                    path=facts.rel,
                    line=send.line,
                    message=(
                        f"{fn.qualname} {send.kind}s {_basename(resolved)} "
                        "but no handler anywhere dispatches that type"
                    ),
                )
        for dotted, (facts, cls_facts) in messages.items():
            if dotted in constructed:
                continue
            for rel, line, qualname in sorted(set(handled.get(dotted, ()))):
                yield self.finding(
                    path=rel,
                    line=line,
                    message=(
                        f"{qualname} dispatches {_basename(dotted)} but "
                        "nothing in the project constructs that message"
                    ),
                )
            if dotted not in handled:
                yield self.finding(
                    path=facts.rel,
                    line=cls_facts.line,
                    message=(
                        f"message class {cls_facts.name} is constructed "
                        "nowhere in the project"
                    ),
                )


class BarrierDominance(Rule):
    """PROTO101. The only net for the §3.2 bug: with the ``store.flush``
    fork removed before ``Promise`` in ``_on_prepare`` (or before
    ``AcceptedBatch`` in ``_on_accept_batch``) tier-1 stays green and 50
    seeds of storage chaos report no violation (both seeded in
    ``test_lint_selfscan.py::TestSeededViolation``)."""

    rule_id = "PROTO101"
    severity = Severity.ERROR
    summary = "handler reaches a stable write and an ack send with no durability barrier"
    rationale = (
        "Sending Promise/AcceptedBatch acknowledges state the peer may now "
        "rely on across our crash (§3.2); a handler that reaches the stable "
        "write and the ack send without routing through a "
        "store.flush()/needs_barrier barrier can lose acked state in a "
        "crash after the send, re-opening the chosen-twice bug class — and "
        "neither tier-1 nor the storage-fault sweep notices."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        index = project.index
        graph = project.graph
        barriers = frozenset(
            node for node, _facts, fn in index.functions() if fn.barrier
        )
        reported: set[tuple[str, int]] = set()
        for handler, _facts, fn in index.functions():
            if not fn.handler or fn.barrier:
                continue
            reach = graph.reachable_from([handler], blocked=barriers)
            write = next(_critical_writes(index, reach), None)
            ack = next(_ack_sends(index, reach), None)
            if write is None or ack is None:
                continue
            writer, write_rel, mutator, write_line = write
            ack_node, ack_rel, kind, msg, ack_line = ack
            if (ack_node, ack_line) in reported:
                continue  # one finding per ack site: its first handler's
            reported.add((ack_node, ack_line))
            witness = [
                *graph.render_path(graph.shortest_path(handler, {writer}, barriers)),
                f"store.{mutator} ({write_rel}:{write_line})",
            ]
            if ack_node != handler:
                witness.extend(
                    graph.render_path(graph.shortest_path(handler, {ack_node}, barriers))
                )
            witness.append(f"{kind} {msg} ({ack_rel}:{ack_line})")
            yield self.finding(
                path=ack_rel,
                line=ack_line,
                message=(
                    f"handler {fn.qualname} reaches store.{mutator}() and "
                    f"{kind}s {msg} with no durability barrier "
                    "(store.flush/needs_barrier) on either path"
                ),
                witness=tuple(witness),
            )


# ------------------------------------------------------------ shared scans
def _handled_types(index: ProjectIndex) -> dict[str, list[tuple[str, int, str]]]:
    """Message class -> [(rel, line, handler qualname)] dispatching it.

    A type counts as handled when a handler isinstance-dispatches it,
    declares it as a parameter annotation, or a class-body dispatch
    registry (``DISPATCH = {Prepare: "_on_prepare", ...}``) routes it to
    a named method.
    """
    out: dict[str, list[tuple[str, int, str]]] = {}
    for _node, facts, fn in index.functions():
        dispatched = [index.resolve_symbol(dotted) for dotted in fn.handled]
        if fn.handler:
            dispatched.extend(
                _resolve_message(index, annotation) for _, annotation in fn.params
            )
        for resolved in dict.fromkeys(dispatched):
            if resolved is not None:
                out.setdefault(resolved, []).append((facts.rel, fn.line, fn.qualname))
    for facts in index.modules.values():
        for cls_facts in facts.classes.values():
            for msg, method in cls_facts.dispatch:
                resolved = _resolve_message(index, msg)
                if resolved is None:
                    continue
                handler = f"{cls_facts.name}.{method}"
                target = facts.functions.get(handler)
                line = target.line if target is not None else cls_facts.line
                out.setdefault(resolved, []).append((facts.rel, line, handler))
    return out


def _critical_writes(index: ProjectIndex, nodes: list[str]):
    """``(node, rel, mutator, line)`` per safety-critical store write in ``nodes``."""
    for node in nodes:
        facts, fn = index.function(node)
        for mutator, line in fn.stable_calls:
            yield node, facts.rel, mutator, line


def _ack_sends(index: ProjectIndex, nodes: list[str]):
    """``(node, rel, kind, message, line)`` per acknowledgement sent in ``nodes``."""
    for node in nodes:
        facts, fn = index.function(node)
        for send in fn.sends:
            msg = _basename(index.resolve_symbol(send.msg))
            if msg in ACK_MESSAGES:
                yield node, facts.rel, send.kind, msg, send.line


def _constructed_types(index: ProjectIndex) -> set[str]:
    """Every class the project constructs anywhere (resolved call targets)."""
    out: set[str] = set()
    for _node, _facts, fn in index.functions():
        for call in fn.calls:
            resolved = index.resolve_symbol(call.target)
            if resolved is not None and index.cls(resolved) is not None:
                out.add(resolved)
    return out


# ------------------------------------------------------------ graph export
def message_flow(project: ProjectContext) -> dict:
    """The send/handle bipartite flow, as a sorted JSON-ready document."""
    index = project.index
    messages = index.message_classes()
    handled = _handled_types(index)
    sends: list[dict] = []
    for node, facts, fn in index.functions():
        for send in fn.sends:
            resolved = index.resolve_symbol(send.msg)
            if resolved in messages:
                sends.append(
                    {
                        "from": node,
                        "kind": send.kind,
                        "message": resolved,
                        "line": send.line,
                        "path": facts.rel,
                    }
                )
    return {
        "version": 1,
        "messages": {
            dotted: {
                "fields": sorted(pair[1].fields),
                "frozen": pair[1].frozen,
                "path": pair[0].rel,
            }
            for dotted, pair in sorted(messages.items())
        },
        "sends": sends,
        "handlers": {
            dotted: sorted(qualname for _rel, _line, qualname in sites)
            for dotted, sites in sorted(handled.items())
            if dotted in messages
        },
        "call_edges": [
            {"from": caller, "to": callee, "line": line}
            for caller in project.graph.nodes()
            for callee, line in project.graph.callees(caller)
        ],
    }


def render_dot(flow: dict) -> str:
    """Graphviz DOT of the send/handle flow (messages as boxes)."""
    lines = ["digraph msgflow {", "  rankdir=LR;", '  node [fontsize=10];']
    for dotted in sorted(flow["messages"]):
        label = _basename(dotted)
        lines.append(f'  "{dotted}" [shape=box,label="{label}"];')
    for send in flow["sends"]:
        style = "solid" if send["kind"] == "send" else "bold"
        lines.append(
            f'  "{send["from"]}" -> "{send["message"]}" [style={style}];'
        )
    for dotted, handlers in sorted(flow["handlers"].items()):
        for handler in handlers:
            lines.append(f'  "{dotted}" -> "{handler}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
