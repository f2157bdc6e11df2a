"""Rendering of instrumented runs: per-message-type and per-phase tables.

Consumes :class:`repro.obs.timeline.RunExport` (a parsed JSONL export) and
renders aligned text tables via :mod:`repro.util.tables` — the same look
as the benchmark output, so report blocks paste straight into
EXPERIMENTS.md. Powers the ``repro report`` CLI subcommand; the
critical-path and hottest-handlers tables also serve ``repro trace`` and
``repro profile``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.obs.registry import Histogram
from repro.obs.spans import SpanStore
from repro.obs.timeline import RunExport
from repro.obs.tracing import COMPONENTS, analyze_requests, summarize_paths
from repro.util.tables import format_table


# ------------------------------------------------------------------- messages
def message_table(export: RunExport) -> str:
    """Per-message-type traffic: sends, delivers, drops, modelled bytes."""
    rows = []
    total_sent = total_bytes = 0
    for type_name in export.message_types():
        sent = export.counter(f"msg.send.{type_name}")
        sent_bytes = export.counter(f"msg.send_bytes.{type_name}")
        total_sent += sent
        total_bytes += sent_bytes
        rows.append(
            [
                type_name,
                sent,
                export.counter(f"msg.deliver.{type_name}"),
                export.counter(f"msg.drop.{type_name}"),
                sent_bytes or "-",
                f"{sent_bytes / sent:.0f}" if sent and sent_bytes else "-",
            ]
        )
    rows.append(["TOTAL", total_sent, "", "", total_bytes or "-", ""])
    table = "Per-message-type traffic\n" + format_table(
        ["message", "sent", "delivered", "dropped", "bytes", "bytes/msg"], rows
    )
    if total_bytes:
        table += (
            "\nbytes: modelled wire size (repro.transport.codec.wire_size), "
            "not the frames the TCP codec writes"
        )
    return table


def per_replica_table(export: RunExport) -> str:
    """Messages sent per process per type (`proc.<pid>.send.<Type>`).

    Each replication group also counts its peer traffic under
    ``proc.<pid>.g<N>.send.<Type>``; those rows are labeled ``<pid>/g<N>``
    and add up to the process row above them."""
    cells: dict[tuple[str, str], int] = {}
    pids: set[str] = set()
    types: set[str] = set()
    for name, value in export.counters.items():
        if not name.startswith("proc."):
            continue
        parts = name.split(".")
        if len(parts) == 4 and parts[2] == "send":
            pid, type_name = parts[1], parts[3]
        elif (
            len(parts) == 5
            and parts[3] == "send"
            and parts[2].startswith("g")
            and parts[2][1:].isdigit()
        ):
            pid, type_name = f"{parts[1]}/{parts[2]}", parts[4]
        else:
            continue
        cells[(pid, type_name)] = value
        pids.add(pid)
        types.add(type_name)
    if not cells:
        return "Per-replica sends: (no per-process counters recorded)"
    ordered_types = sorted(types)
    rows = []
    for pid in sorted(pids):
        rows.append([pid, *(cells.get((pid, t), 0) for t in ordered_types)])
    return "Messages sent per process\n" + format_table(["process", *ordered_types], rows)


# --------------------------------------------------------------------- phases
def _phase_rows(histograms: Mapping[str, Histogram]) -> list[list[object]]:
    rows: list[list[object]] = []
    for name, hist in sorted(histograms.items()):
        if hist.count == 0:
            continue
        label = name[len("proc."):] if name.startswith("proc.") else name
        rows.append(
            [
                label,
                hist.count,
                f"{hist.mean * 1e3:.3f}",
                f"{hist.quantile(0.5) * 1e3:.3f}",
                f"{hist.quantile(0.95) * 1e3:.3f}",
                f"{hist.maximum * 1e3:.3f}",
            ]
        )
    return rows


def phase_table(export: RunExport) -> str:
    """Per-replica protocol-phase latency summaries (ms)."""
    rows = _phase_rows(export.histograms)
    if not rows:
        return "Phase latencies: (no histograms recorded)"
    return "Phase latencies (ms)\n" + format_table(
        ["phase", "n", "mean", "p50", "p95", "max"], rows
    )


# -------------------------------------------------------------- critical path
def critical_path_table(store: SpanStore) -> str:
    """Per-request-kind critical-path attribution to the §3.4 components
    (M = client<->replica hop, E = execution, m = replica<->replica hop).
    Empty when the store holds no request span trees."""
    paths = analyze_requests(store)
    if not paths:
        return ""
    rows: list[list[object]] = []
    for kind, s in summarize_paths(paths).items():
        rows.append(
            [kind, "mean", s.n, f"{s.mean_total * 1e3:.3f}",
             *(f"{s.mean[c] * 1e3:.3f}" for c in COMPONENTS),
             s.incomplete or ""]
        )
        rows.append(
            [kind, "p95", "", f"{s.p95_total * 1e3:.3f}",
             *(f"{s.p95[c] * 1e3:.3f}" for c in COMPONENTS), ""]
        )
    return "Critical-path attribution (ms)\n" + format_table(
        ["kind", "stat", "n", "total", *COMPONENTS, "incomplete"], rows
    )


# ------------------------------------------------------------------- profiling
def hottest_handlers_table(
    frames: Iterable[tuple[tuple[str, ...], int, int]], top: int = 10
) -> str:
    """Top-N of ``(path, calls, sim_ns)`` frame rows
    (:func:`repro.obs.prof.export.frame_rows`) by sim-CPU time. Empty when
    no frame was ever booked.
    """
    ranked = sorted(
        (row for row in frames if row[1]), key=lambda row: (-row[2], row[0])
    )
    if not ranked:
        return ""
    rows = [
        [";".join(path), calls, f"{sim_ns / 1e6:.3f}"]
        for path, calls, sim_ns in ranked[:top]
    ]
    return (
        f"Hottest handlers (top {len(rows)} by sim time, exclusive)\n"
        + format_table(["frame", "calls", "sim ms"], rows)
    )


# -------------------------------------------------------------------- summary
def _meta_line(export: RunExport) -> str:
    meta = export.meta
    if not meta:
        return ""
    return (
        f"run: seed={meta.get('seed')} profile={meta.get('profile')} "
        f"replicas={meta.get('n_replicas')} clients={meta.get('n_clients')} "
        f"sim_time={meta.get('sim_time', 0):.3f}s"
    )


def render_report(export: RunExport) -> str:
    """The full single-run report: meta, traffic, per-replica, phases."""
    blocks = [
        block
        for block in (
            _meta_line(export),
            message_table(export),
            per_replica_table(export),
            phase_table(export),
            critical_path_table(export.span_store()),
        )
        if block
    ]
    result = export.result
    if result:
        blocks.append(
            f"totals: requests={result.get('total_requests')} "
            f"messages={result.get('total_messages')} "
            f"bytes={result.get('total_bytes')} "
            f"throughput={result.get('throughput') or 0.0:.1f}/s"
        )
    return "\n\n".join(blocks)
