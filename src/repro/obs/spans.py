"""Causal spans: the data model behind request tracing.

A :class:`Span` is one named interval of virtual time attributed to one
process, linked to its causal parent. A client request becomes a *trace*:
the root span covers submit → reply, every message hop and protocol phase
underneath it is a child span, and the parent edges reconstruct the causal
chain (client submit → leader receive → execute → Accept fan-out →
per-replica Accepted → quorum → Chosen → apply → Reply).

Spans are plain data. The :class:`SpanStore` holds them in creation order
(which is deterministic — span ids are a simple counter), serializes them
to/from JSONL records, and reconstructs :class:`SpanTree` views per trace.
Trees *retain* spans whose parent is missing (dropped exports, crashed
processes, mid-run leader switches) and flag them as orphans rather than
silently discarding them — an orphan is evidence, not noise.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.types import ProcessId


@dataclass(slots=True)
class Span:
    """One interval of virtual time in a causal trace.

    ``end is None`` means the span never finished — the run ended (or the
    owning process lost its role) while the span was open. Open spans are
    exported as-is; analyzers must treat them as abandoned, not zero-cost.
    """

    span_id: int
    trace_id: int
    parent_id: int | None
    name: str
    kind: str
    pid: ProcessId | None
    start: float
    end: float | None = None
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed virtual time; 0.0 while still open."""
        return 0.0 if self.end is None else self.end - self.start

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "record": "span",
            "id": self.span_id,
            "trace": self.trace_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "pid": self.pid,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Span":
        return cls(
            span_id=int(record["id"]),
            trace_id=int(record["trace"]),
            parent_id=None if record.get("parent") is None else int(record["parent"]),
            name=str(record["name"]),
            kind=str(record.get("kind", "span")),
            pid=record.get("pid"),
            start=float(record["start"]),
            end=None if record.get("end") is None else float(record["end"]),
            status=str(record.get("status", "ok")),
            attrs=dict(record.get("attrs") or {}),
        )


class SpanStore:
    """All spans of one run, in deterministic creation order."""

    __slots__ = ("_spans", "_by_id")

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._by_id: dict[int, Span] = {}

    def add(self, span: Span) -> Span:
        self._spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def get(self, span_id: int) -> Span | None:
        return self._by_id.get(span_id)

    def roots(self) -> list[Span]:
        """Spans with no parent — one per trace, in creation order."""
        return [s for s in self._spans if s.parent_id is None]

    def trace(self, trace_id: int) -> list[Span]:
        return [s for s in self._spans if s.trace_id == trace_id]

    def tree(self, trace_id: int) -> "SpanTree":
        return SpanTree.build(self.trace(trace_id), trace_id)

    # ------------------------------------------------------------- serialization
    def to_records(self) -> Iterator[dict[str, Any]]:
        for span in self._spans:
            yield span.to_record()

    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, Any]]) -> "SpanStore":
        store = cls()
        for record in records:
            store.add(Span.from_record(record))
        return store


class SpanTree:
    """Parent/child view of one trace.

    ``orphans`` holds spans whose ``parent_id`` points outside the trace's
    recorded spans (the parent was never exported, or belongs to a process
    whose role changed mid-run). Orphans keep their subtrees and are
    flagged via :meth:`is_orphan`; :meth:`walk` yields them after the
    proper roots so nothing is silently dropped.
    """

    __slots__ = ("trace_id", "roots", "orphans", "_children", "_by_id")

    def __init__(
        self,
        trace_id: int,
        roots: list[Span],
        orphans: list[Span],
        children: dict[int, list[Span]],
        by_id: dict[int, Span],
    ) -> None:
        self.trace_id = trace_id
        self.roots = roots
        self.orphans = orphans
        self._children = children
        self._by_id = by_id

    @classmethod
    def build(cls, spans: Sequence[Span], trace_id: int) -> "SpanTree":
        by_id = {s.span_id: s for s in spans}
        roots: list[Span] = []
        orphans: list[Span] = []
        children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent_id is None:
                roots.append(span)
            elif span.parent_id in by_id:
                children.setdefault(span.parent_id, []).append(span)
            else:
                orphans.append(span)
        for kids in children.values():
            kids.sort(key=lambda s: (s.start, s.span_id))
        return cls(trace_id, roots, orphans, children, by_id)

    def get(self, span_id: int) -> Span | None:
        return self._by_id.get(span_id)

    def children(self, span: Span) -> list[Span]:
        return self._children.get(span.span_id, [])

    def parent(self, span: Span) -> Span | None:
        if span.parent_id is None:
            return None
        return self._by_id.get(span.parent_id)

    def is_orphan(self, span: Span) -> bool:
        """True when the span's recorded parent is missing from this trace."""
        return span.parent_id is not None and span.parent_id not in self._by_id

    def depth(self, span: Span) -> int:
        depth = 0
        current: Span | None = span
        while current is not None and current.parent_id is not None:
            current = self._by_id.get(current.parent_id)
            depth += 1
        return depth

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Yield ``(span, depth)`` depth-first: roots first, then orphans."""
        def visit(span: Span, depth: int) -> Iterator[tuple[Span, int]]:
            yield span, depth
            for child in self.children(span):
                yield from visit(child, depth + 1)

        for root in self.roots:
            yield from visit(root, 0)
        for orphan in self.orphans:
            yield from visit(orphan, 0)

    def descendants(self, span: Span) -> Iterator[Span]:
        for child in self.children(span):
            yield child
            yield from self.descendants(child)

    # --------------------------------------------------------------- rendering
    def render_waterfall(self, unit: float = 1e-3, unit_name: str = "ms") -> str:
        """A plain-text waterfall of this trace, offsets relative to the
        earliest span start. Orphans are listed under a marker line."""
        spans = list(self._by_id.values())
        if not spans:
            return f"trace {self.trace_id}: (empty)"
        origin = min(s.start for s in spans)
        lines = [f"trace {self.trace_id}"]
        emitted_orphan_header = False
        for span, depth in self.walk():
            if self.is_orphan(span) and not emitted_orphan_header:
                lines.append("  -- orphaned spans (parent missing) --")
                emitted_orphan_header = True
            offset = (span.start - origin) / unit
            if span.finished:
                length = f"{span.duration / unit:.3f} {unit_name}"
            else:
                length = "open"
            where = f" @{span.pid}" if span.pid is not None else ""
            status = "" if span.status == "ok" else f" [{span.status}]"
            lines.append(
                f"  {offset:9.3f}  {'  ' * depth}{span.name}{where}"
                f"  ({length}){status}"
            )
        return "\n".join(lines)


__all__ = ["Span", "SpanStore", "SpanTree"]
