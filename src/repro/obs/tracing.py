"""The causal tracer and the per-request critical-path analyzer.

**Recording.** :class:`Tracer` assigns a trace id per client request and
records :class:`repro.obs.spans.Span` objects with parent/child causal
edges. Context is propagated at the *envelope* layer: the world captures
the tracer's ambient span when a message is sent or a timer armed, carries
it alongside the frozen message (never inside it), and re-activates it
around the receiver's handler. Protocol code therefore only needs to open
spans at semantically meaningful points (execute, accept round, txn scope,
recovery); the causal edges fall out of delivery order.

Tracing obeys the same passivity invariant as the metrics layer: the
tracer reads the virtual clock and an id counter — it never touches an
RNG, never schedules an event, and the world passes span slots through the
kernel unconditionally so the event schedule is identical with tracing on
or off (see ``tests/integration/test_tracing.py``).

**Analysis.** :func:`critical_path` reconstructs the chain of causally
latest spans from a request's reply back to its submit and attributes each
wall-time segment to the paper's §3.4 latency components:

* ``M`` — a message hop between a client and a replica,
* ``m`` — a message hop between two replicas,
* ``E`` — service execution,
* ``other`` — everything else (quantization, queueing, protocol logic).

:func:`conformance` then checks the measured decomposition against the
analytic formulas (``2M + E + 2m`` for the basic protocol, ``2M +
max(E, m)`` for X-Paxos reads) on a calibrated deployment profile.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.spans import Span, SpanStore, SpanTree
from repro.types import ProcessId

if TYPE_CHECKING:
    from repro.analysis.model import LatencyModelInputs

#: Sentinel: "parent defaults to the ambient span".
_AMBIENT = object()


class Tracer:
    """Records spans against a virtual clock, with an ambient current span.

    The ambient span (:attr:`current`) is what makes envelope propagation
    work: whoever is running "inside" a span activates it, and everything
    recorded meanwhile — message sends, timer arms, child spans — parents
    to it by default.
    """

    enabled = True

    __slots__ = ("_clock", "store", "current", "_next_id")

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.store = SpanStore()
        self.current: Span | None = None
        self._next_id = 1

    # ------------------------------------------------------------- recording
    def _new_span(
        self,
        name: str,
        kind: str,
        pid: ProcessId | None,
        parent: Span | None,
        attrs: dict[str, Any] | None,
    ) -> Span:
        span_id = self._next_id
        self._next_id += 1
        span = Span(
            span_id=span_id,
            trace_id=parent.trace_id if parent is not None else span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            kind=kind,
            pid=pid,
            start=self._clock(),
            attrs=attrs if attrs is not None else {},
        )
        return self.store.add(span)

    def start_trace(
        self,
        name: str,
        pid: ProcessId | None = None,
        kind: str = "request",
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Open a root span: a fresh trace id, no parent."""
        return self._new_span(name, kind, pid, parent=None, attrs=attrs)

    def start_span(
        self,
        name: str,
        pid: ProcessId | None = None,
        kind: str = "span",
        parent: Any = _AMBIENT,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Open a span under ``parent`` (default: the ambient span). With no
        parent available the span becomes its own root."""
        if parent is _AMBIENT:
            parent = self.current
        return self._new_span(name, kind, pid, parent=parent, attrs=attrs)

    def instant(
        self,
        name: str,
        pid: ProcessId | None = None,
        kind: str = "event",
        parent: Any = _AMBIENT,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """A zero-duration marker span."""
        span = self.start_span(name, pid=pid, kind=kind, parent=parent, attrs=attrs)
        span.end = span.start
        return span

    def end(self, span: Span | None, status: str = "ok") -> None:
        """Close ``span``. Idempotent and ``None``-safe: double ends (e.g.
        duplicated message copies) and disabled-tracing call sites no-op."""
        if span is None or span.end is not None:
            return
        span.end = self._clock()
        if status != "ok":
            span.status = status

    # -------------------------------------------------------------- context
    def activate(self, span: Span | None) -> Span | None:
        """Make ``span`` ambient; returns the previous ambient as a token
        for :meth:`restore`. Activating ``None`` clears the ambient span."""
        token = self.current
        self.current = span
        return token

    def restore(self, token: Span | None) -> None:
        self.current = token

    def activate_for(self, ctx: Span | None) -> Span | None:
        """Activate ``ctx`` unless the ambient span already belongs to the
        same trace (then keep the deeper ambient span). Used when replying
        for a batched request: the reply must join the *request's* trace
        even if it is sent while handling a message from another trace."""
        if ctx is None or (
            self.current is not None and self.current.trace_id == ctx.trace_id
        ):
            return self.activate(self.current)
        return self.activate(ctx)


class NullTracer:
    """Tracing disabled: every operation is a no-op. Mirrors
    :class:`repro.obs.registry.NullRegistry` so call sites stay branch-free."""

    enabled = False
    current = None

    __slots__ = ()

    def start_trace(self, *args: Any, **kwargs: Any) -> None:
        return None

    def start_span(self, *args: Any, **kwargs: Any) -> None:
        return None

    def instant(self, *args: Any, **kwargs: Any) -> None:
        return None

    def end(self, span: Any, status: str = "ok") -> None:
        return None

    def activate(self, span: Any) -> None:
        return None

    def restore(self, token: Any) -> None:
        return None

    def activate_for(self, ctx: Any) -> None:
        return None


NULL_TRACER = NullTracer()


# ====================================================================== analysis

#: Critical-path component labels, in report order.
COMPONENTS = ("M", "E", "m", "other")


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One attributed slice of a request's wall time."""

    span_id: int
    name: str
    kind: str
    component: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class RequestPath:
    """The reconstructed critical path of one client request."""

    trace_id: int
    rid: str | None
    request_kind: str | None
    client: ProcessId | None
    total: float
    segments: tuple[PathSegment, ...]
    complete: bool  # False when the causal chain was broken (orphans)

    def component(self, name: str) -> float:
        return sum(s.duration for s in self.segments if s.component == name)


def classify_span(span: Span, client: ProcessId | None) -> str:
    """Map a span to a §3.4 latency component."""
    if span.kind == "execute":
        return "E"
    if span.kind == "message":
        src = span.attrs.get("src")
        dst = span.attrs.get("dst")
        if client is not None and client in (src, dst):
            return "M"
        return "m"
    return "other"


def _terminal_span(tree: SpanTree, root: Span) -> Span | None:
    """The causally latest finished descendant that ends by the root's end
    — the last hop before the client observed the reply."""
    assert root.end is not None
    best: Span | None = None
    best_key: tuple[float, int] | None = None
    for span in tree.descendants(root):
        if span.end is None or span.end > root.end:
            continue
        key = (span.end, tree.depth(span))
        if best_key is None or key > best_key:
            best, best_key = span, key
    return best


def critical_path(store: SpanStore, root: Span) -> RequestPath | None:
    """Reconstruct the critical path of one finished request root.

    Walks parent edges from the terminal span (the reply delivery) back to
    the root; each ancestor is charged for the interval from its own start
    to its successor's start, the terminal span for its full extent, and
    the root for the initial gap. Returns ``None`` for unfinished roots.
    """
    if root.end is None:
        return None
    tree = store.tree(root.trace_id)
    client = root.pid
    rid = root.attrs.get("rid")
    request_kind = root.attrs.get("kind")
    total = root.end - root.start

    terminal = _terminal_span(tree, root)
    if terminal is None:
        # No usable descendants (all dropped/orphaned): everything is "other".
        segment = PathSegment(root.span_id, root.name, root.kind, "other",
                              root.start, root.end)
        return RequestPath(root.trace_id, rid, request_kind, client, total,
                           (segment,), complete=False)

    chain: list[Span] = []
    current: Span | None = terminal
    complete = False
    while current is not None:
        chain.append(current)
        if current.span_id == root.span_id:
            complete = True
            break
        current = tree.parent(current)
    chain.reverse()  # root (or orphan ancestor) ... terminal

    segments: list[PathSegment] = []

    def add(span: Span, start: float, end: float, component: str | None = None) -> None:
        if end < start:
            end = start
        segments.append(PathSegment(
            span.span_id, span.name, span.kind,
            component if component is not None else classify_span(span, client),
            start, end,
        ))

    if not complete:
        # The chain is broken by a missing parent: charge the unexplained
        # prefix to the root as "other" evidence, not to a fake component.
        add(root, root.start, chain[0].start, component="other")
    for i, span in enumerate(chain):
        is_terminal = i == len(chain) - 1
        span_end = span.end if span.end is not None else root.end
        end = span_end if is_terminal else chain[i + 1].start
        if span.span_id == root.span_id:
            # The root's own slice is client-side think/queue time.
            add(span, span.start, end, component="other")
        else:
            add(span, span.start, end)
    # Whatever remains between the terminal's end and the root's end is
    # client-side handling (usually ~0 in the simulator).
    last_end = segments[-1].end if segments else root.start
    if root.end - last_end > 0:
        add(root, last_end, root.end, component="other")

    return RequestPath(root.trace_id, rid, request_kind, client, total,
                       tuple(segments), complete=complete)


def analyze_requests(store: SpanStore) -> list[RequestPath]:
    """Critical paths of every finished request trace, in submit order."""
    paths = []
    for root in store.roots():
        if root.kind != "request" or root.end is None:
            continue
        path = critical_path(store, root)
        if path is not None:
            paths.append(path)
    return paths


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


@dataclass(frozen=True, slots=True)
class PathSummary:
    """Mean/p95 attribution for one request kind."""

    request_kind: str
    n: int
    mean_total: float
    p95_total: float
    mean: Mapping[str, float]
    p95: Mapping[str, float]
    incomplete: int


def summarize_paths(paths: Iterable[RequestPath]) -> dict[str, PathSummary]:
    """Group critical paths by request kind and summarize attribution."""
    groups: dict[str, list[RequestPath]] = {}
    for path in paths:
        groups.setdefault(path.request_kind or "?", []).append(path)
    summaries: dict[str, PathSummary] = {}
    for kind, members in sorted(groups.items()):
        totals = [p.total for p in members]
        mean: dict[str, float] = {}
        p95: dict[str, float] = {}
        for component in COMPONENTS:
            values = [p.component(component) for p in members]
            mean[component] = sum(values) / len(values)
            p95[component] = _percentile(values, 0.95)
        summaries[kind] = PathSummary(
            request_kind=kind,
            n=len(members),
            mean_total=sum(totals) / len(totals),
            p95_total=_percentile(totals, 0.95),
            mean=mean,
            p95=p95,
            incomplete=sum(1 for p in members if not p.complete),
        )
    return summaries


@dataclass(frozen=True, slots=True)
class ConformanceRow:
    """Measured-vs-model comparison for one request kind."""

    request_kind: str
    formula: str
    n: int
    measured_mean: float
    expected: float

    @property
    def deviation(self) -> float:
        return self.measured_mean - self.expected


def conformance(
    paths: Iterable[RequestPath],
    model: LatencyModelInputs,
    xpaxos_reads: bool = True,
) -> dict[str, ConformanceRow]:
    """Check measured per-request latency against the §3.4 formulas.

    With ``xpaxos_reads=False`` reads travel the basic protocol path and
    are held to the write formula instead.
    """
    from repro.analysis.model import basic_rrt, original_rrt, xpaxos_rrt

    formulas = {
        "write": ("2M + E + 2m", basic_rrt),
        "read": ("2M + max(E, m)", xpaxos_rrt),
        "original": ("2M + E", original_rrt),
    }
    summaries = summarize_paths(paths)
    rows: dict[str, ConformanceRow] = {}
    for kind, summary in summaries.items():
        entry = formulas.get(kind)
        if entry is None:
            continue
        formula, fn = entry
        if kind == "read" and not xpaxos_reads:
            formula, fn = formulas["write"]
        rows[kind] = ConformanceRow(
            request_kind=kind,
            formula=formula,
            n=summary.n,
            measured_mean=summary.mean_total,
            expected=fn(model),
        )
    return rows


__all__ = [
    "COMPONENTS",
    "ConformanceRow",
    "NULL_TRACER",
    "NullTracer",
    "PathSegment",
    "PathSummary",
    "RequestPath",
    "Tracer",
    "analyze_requests",
    "classify_span",
    "conformance",
    "critical_path",
    "summarize_paths",
]
