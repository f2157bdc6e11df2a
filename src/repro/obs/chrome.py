"""Chrome trace-event JSON export (Perfetto / ``about://tracing`` loadable).

Maps the span store onto the trace-event format:

* processes become trace-event ``pid`` s (with ``process_name`` metadata);
* each (process, trace) pair becomes a ``tid`` track, so one request's
  spans line up on one row per process;
* protocol-phase spans (request, execute, accept round, txn, recovery...)
  are emitted as duration events (``B``/``E``), properly nested per track;
* message spans are *async* events (``b``/``e``, matched by ``cat`` +
  ``id``) because a network hop routinely outlives the span that sent it —
  async events carry no LIFO nesting requirement.

Causality is preserved in ``args`` (span/parent/trace ids); timestamps are
virtual-time microseconds. A span pair that would violate duration-event
nesting (partial overlap on one track) is demoted to async rather than
emitted broken, and spans still open at export time are closed at the
export horizon with ``"open": true`` so every ``B`` has an ``E``.

:func:`validate_chrome_trace` re-checks an exported file against the
schema invariants CI relies on: valid JSON, non-decreasing timestamps, and
matched begin/end pairs (both duration and async).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.obs.spans import Span, SpanStore

#: Span kinds that ride async tracks by default (see module docstring).
ASYNC_KINDS = frozenset({"message"})

_US = 1e6  # seconds -> trace-event microseconds


def _span_args(span: Span, open_at_horizon: bool) -> dict[str, Any]:
    args: dict[str, Any] = {
        "span": span.span_id,
        "trace": span.trace_id,
        "parent": span.parent_id,
        "status": span.status,
    }
    if open_at_horizon:
        args["open"] = True
    args.update(span.attrs)
    return args


def chrome_events(store: SpanStore, horizon: float | None = None) -> list[dict[str, Any]]:
    """Flatten a span store into a sorted trace-event list."""
    spans = list(store)
    if horizon is None:
        ends = [s.end for s in spans if s.end is not None]
        starts = [s.start for s in spans]
        horizon = max(ends + starts) if (ends or starts) else 0.0

    pid_index: dict[Any, int] = {}

    def pid_of(span: Span) -> int:
        key = span.pid if span.pid is not None else "?"
        if key not in pid_index:
            pid_index[key] = len(pid_index) + 1
        return pid_index[key]

    # Partition spans onto (pid, tid) duration tracks or the async pool.
    tracks: dict[tuple[int, int], list[tuple[Span, float, bool]]] = {}
    async_spans: list[tuple[Span, float, bool]] = []
    for span in spans:
        is_open = span.end is None
        end = horizon if is_open else span.end
        entry = (span, max(end, span.start), is_open)
        if span.kind in ASYNC_KINDS:
            async_spans.append(entry)
        else:
            tracks.setdefault((pid_of(span), span.trace_id), []).append(entry)

    events: list[dict[str, Any]] = []

    def pop_one(
        stack: list[tuple[Span, float, bool]],
        track_events: list[dict[str, Any]],
        pid: int,
        tid: int,
    ) -> None:
        span, end, _is_open = stack.pop()
        track_events.append({
            "name": span.name, "ph": "E", "pid": pid, "tid": tid,
            "ts": end * _US,
        })

    for (pid, tid), members in tracks.items():
        members.sort(key=lambda e: (e[0].start, -e[1], e[0].span_id))
        track_events: list[dict[str, Any]] = []
        stack: list[tuple[Span, float, bool]] = []

        for span, end, is_open in members:
            while stack and stack[-1][1] <= span.start:
                pop_one(stack, track_events, pid, tid)
            if stack and stack[-1][1] < end:
                # Partial overlap with the enclosing span: duration events
                # cannot express this, so this span goes async instead.
                async_spans.append((span, end, is_open))
                continue
            stack.append((span, end, is_open))
            track_events.append({
                "name": span.name, "ph": "B", "pid": pid, "tid": tid,
                "ts": span.start * _US, "cat": span.kind,
                "args": _span_args(span, is_open),
            })
        while stack:
            pop_one(stack, track_events, pid, tid)
        events.extend(track_events)

    for span, end, is_open in async_spans:
        pid = pid_of(span)
        ident = f"0x{span.span_id:x}"
        common = {"name": span.name, "cat": span.kind, "id": ident,
                  "pid": pid, "tid": span.trace_id}
        events.append({**common, "ph": "b", "ts": span.start * _US,
                       "args": _span_args(span, is_open)})
        events.append({**common, "ph": "e", "ts": end * _US})

    events.sort(key=lambda e: e["ts"])  # stable: per-track order survives

    metadata = [
        {"name": "process_name", "ph": "M", "pid": index, "ts": 0.0,
         "args": {"name": str(key)}}
        for key, index in sorted(pid_index.items(), key=lambda kv: kv[1])
    ]
    return metadata + events


def export_chrome(store: SpanStore, path: str | Path, horizon: float | None = None) -> Path:
    """Write the store as a trace-event JSON file Perfetto can load."""
    path = Path(path)
    document = {
        "traceEvents": chrome_events(store, horizon=horizon),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs.chrome", "clock": "virtual"},
    }
    # sort_keys keeps exports byte-identical across PYTHONHASHSEED values.
    path.write_text(json.dumps(document, sort_keys=True) + "\n", encoding="utf-8")
    return path


def validate_chrome_trace(source: str | Path | Mapping[str, Any]) -> dict[str, int]:
    """Validate a trace-event document; raises ``ValueError`` on violation.

    Checks: the file parses as JSON with a ``traceEvents`` list, every
    event carries the required fields, timestamps are non-decreasing in
    file order, duration events nest LIFO per (pid, tid) with matching
    names, and async begin/end events pair up per (cat, id). Returns
    summary counts for reporting.
    """
    if isinstance(source, Mapping):
        document: Any = source
    else:
        try:
            document = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}: not valid JSON: {exc}") from exc
    if isinstance(document, list):
        events = document
    elif isinstance(document, Mapping) and isinstance(document.get("traceEvents"), list):
        events = document["traceEvents"]
    else:
        raise ValueError("trace document must be a list or have a 'traceEvents' list")

    stacks: dict[tuple[Any, Any], list[str]] = {}
    async_open: dict[tuple[Any, Any], list[float]] = {}
    counts = {"events": 0, "duration_spans": 0, "async_spans": 0}
    last_ts: float | None = None

    for i, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise ValueError(f"event {i}: not an object")
        for key in ("name", "ph", "pid", "ts"):
            if key not in event:
                raise ValueError(f"event {i}: missing required field {key!r}")
        ph = event["ph"]
        ts = float(event["ts"])
        counts["events"] += 1
        if ph == "M":
            continue
        if last_ts is not None and ts < last_ts:
            raise ValueError(
                f"event {i}: timestamp {ts} decreases (previous {last_ts})"
            )
        last_ts = ts
        track = (event["pid"], event.get("tid"))
        if ph == "B":
            stacks.setdefault(track, []).append(str(event["name"]))
        elif ph == "E":
            stack = stacks.get(track) or []
            if not stack:
                raise ValueError(f"event {i}: 'E' with no open 'B' on {track}")
            opened = stack.pop()
            if opened != str(event["name"]):
                raise ValueError(
                    f"event {i}: 'E' for {event['name']!r} but "
                    f"{opened!r} is open on {track}"
                )
            counts["duration_spans"] += 1
        elif ph == "b":
            key = (event.get("cat"), event.get("id"))
            if key[1] is None:
                raise ValueError(f"event {i}: async 'b' without an id")
            async_open.setdefault(key, []).append(ts)
        elif ph == "e":
            key = (event.get("cat"), event.get("id"))
            starts = async_open.get(key) or []
            if not starts:
                raise ValueError(f"event {i}: async 'e' with no open 'b' for {key}")
            started = starts.pop()
            if ts < started:
                raise ValueError(f"event {i}: async span ends before it begins")
            counts["async_spans"] += 1
        elif ph in ("X", "i", "I", "s", "t", "f", "C"):
            continue  # self-contained phases need no pairing
        else:
            raise ValueError(f"event {i}: unknown phase {ph!r}")

    unclosed = [track for track, stack in stacks.items() if stack]
    if unclosed:
        raise ValueError(f"unmatched 'B' events on tracks {unclosed[:5]}")
    dangling = [key for key, starts in async_open.items() if starts]
    if dangling:
        raise ValueError(f"unmatched async 'b' events for {dangling[:5]}")
    counts["processes"] = len({e["pid"] for e in events if isinstance(e, Mapping)})
    return counts


__all__ = ["ASYNC_KINDS", "chrome_events", "export_chrome", "validate_chrome_trace"]
