"""The paper's §4 evaluation: one record per results file, and nothing else
knows what a figure is.

§4 has ten artefacts — the Sysnet, Berkeley->Princeton and WAN response
times, Figs. 5-8, Table 1, Figs. 9a and 9b. An :class:`Artefact` is the
grid cells one of them needs (at quick and full size) and how to read
their keyed results into a :class:`Table`: rows, the paper's claim about
them, and where the measured numbers contradict it. A :class:`Figure`
groups the artefacts written to one results file. Every consumer is a view
over :data:`FIGURES`:

* :func:`figures_grid` (``repro sweep --grid figures``) concatenates the
  records' cells;
* ``repro experiments`` runs that grid once, prints :func:`report` and
  exits 1 when any :meth:`Figure.check` is non-empty;
* ``benchmarks/bench_figures.py`` runs one record's cells per case and
  writes its tables with :func:`render_text`.

Latency claims compare against the paper's numbers
(:attr:`~repro.net.profiles.NetworkProfile.paper_rrt`,
:data:`TABLE1_PAPER_MS`); throughput claims are the paper's *shapes* —
orderings, peaks, coinciding curves — because absolute throughput depends
on testbed constants the paper does not give.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.report import percent_change
from repro.net.profiles import get_profile
from repro.parallel.spec import KINDS, RunSpec
from repro.util.tables import format_table

#: ``{run key: task result}``, as :func:`repro.parallel.run_grid` returns it.
Results = dict[str, dict[str, Any]]
#: ``{curve name: [value per client count]}``.
Series = dict[str, list[float]]

CLIENTS = (1, 2, 4, 8, 16)
#: Column order of Figs. 5-8, and of Fig. 9.
CURVES = ("read", "write", "original")
MODES = ("read_write", "write_only", "optimized")

#: Table 1 cells, (transaction mode, requests per transaction): the
#: paper's TRT in ms.
TABLE1_PAPER_MS = {
    ("read_write", 3): 1.17,
    ("read_write", 5): 1.79,
    ("write_only", 3): 1.29,
    ("write_only", 5): 2.01,
    ("optimized", 3): 0.85,
    ("optimized", 5): 1.23,
}

#: Report headings in order; a table names the one it is listed under.
SECTIONS = {
    "rrt": "Request response time (§4.1)",
    "throughput": "Throughput (Figs. 5-8)",
    "txn": "Transactions (§4.2)",
}


@dataclass(frozen=True)
class Table:
    """One table of the report, read from measured results."""

    section: str
    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[object]]
    #: What the paper says about these numbers ...
    claim: str
    #: ... and where the measured ones contradict it (empty: it holds).
    violations: Sequence[str]
    #: A line of derived numbers printed under the table.
    note: str = ""
    #: BENCH metrics for the perf ledger: ``{name: (value, unit)}``.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)


@dataclass(frozen=True)
class Artefact:
    """One of §4's ten tables and figures: the grid cells it needs
    (``quick ->`` run specs) and how to read their results."""

    cells: Callable[[bool], list[RunSpec]]
    table: Callable[[Results], Table]


@dataclass(frozen=True)
class Figure:
    """One results file of §4: ``benchmarks/results/<stem>.txt`` and
    ``BENCH_<stem>.json``, holding one artefact or (Figs. 7 and 8, which
    carry their deployment's response times) two."""

    stem: str
    artefacts: Sequence[Artefact]

    def cells(self, quick: bool) -> list[RunSpec]:
        return [spec for a in self.artefacts for spec in a.cells(quick)]

    def tables(self, results: Results) -> list[Table]:
        return [a.table(results) for a in self.artefacts]

    def check(self, results: Results) -> list[str]:
        """The paper claims ``results`` violate, each naming its table."""
        return [
            f"{table.title}: {violation}"
            for table in self.tables(results)
            for violation in table.violations
        ]


def _cell(task: str, key: str, **params: Any) -> RunSpec:
    return RunSpec(task=task, key=key, params=params)


def _paper_table(
    section: str,
    title: str,
    label: str,
    digits: int,
    rel: float,
    cells: dict[str, tuple[float, dict[str, float]]],
    **extra: Any,
) -> Table:
    """Paper vs measured means; ``cells`` maps a row label to (the paper's
    value in seconds, the measured latency summary)."""
    deltas = {
        name: percent_change(paper, summary["mean"])
        for name, (paper, summary) in cells.items()
    }
    return Table(
        section=section,
        title=title,
        headers=[label, "paper (ms)", "measured (ms)", "99% CI (ms)", "delta"],
        rows=[
            [
                name,
                f"{paper * 1e3:.{digits}f}",
                f"{summary['mean'] * 1e3:.{digits}f}",
                f"±{summary['ci99'] * 1e3:.{digits + 1}f}",
                f"{deltas[name]:+.1f}%",
            ]
            for name, (paper, summary) in cells.items()
        ],
        claim=f"every mean within {rel:.0%} of the paper's",
        violations=[
            f"{name} is {delta:+.1f}% off"
            for name, delta in deltas.items()
            if abs(delta) > rel * 100
        ],
        **extra,
    )


def _series(
    results: Results, prefix: str, clients: Sequence[int], names: Sequence[str], value: str
) -> Series:
    return {
        name: [results[f"{prefix}/c={c:03d}/{name}"][value] for c in clients]
        for name in names
    }


def _rows_failing(
    clients: Sequence[int], s: Series, holds: Callable[..., bool]
) -> list[str]:
    """One message per client count whose values (in ``s``'s column order)
    do not satisfy ``holds``."""
    return [
        f"at {c} clients: " + ", ".join(f"{n} {v:.1f}" for n, v in zip(s, values, strict=True))
        for c, *values in zip(clients, *s.values(), strict=True)
        if not holds(*values)
    ]


# ------------------------------------------------------- response time (§4.1)
def _rrt(profile: str, rel: float) -> Artefact:
    def cells(quick: bool) -> list[RunSpec]:
        return [
            _cell("rrt", f"rrt/{profile}/{kind}", profile=profile, kind=kind,
                  samples=60 if quick else 300, seed=1)
            for kind in KINDS
        ]

    def table(results: Results) -> Table:
        paper = get_profile(profile).paper_rrt
        measured = {kind: results[f"rrt/{profile}/{kind}"]["rrt"] for kind in KINDS}
        return _paper_table(
            "rrt", f"{profile} — request response time (§4.1)", "kind", 3, rel,
            {kind: (paper[kind], rrt) for kind, rrt in measured.items()},
            metrics={f"rrt_{kind}_s": (rrt["mean"], "s") for kind, rrt in measured.items()},
        )

    return Artefact(cells, table)


# ------------------------------------------------------ throughput (Figs. 5-8)
def _throughput(
    number: int,
    profile: str,
    clients: Sequence[int],
    claim: str,
    shape: Callable[[Sequence[int], Series], list[str]],
    metrics: Callable[[Series], dict[str, float]] = lambda s: {},
) -> Artefact:
    prefix = f"throughput/fig{number}/{profile}"

    def cells(quick: bool) -> list[RunSpec]:
        # §4: "each client sends exactly 1000/c requests"
        return [
            _cell("throughput", f"{prefix}/c={c:03d}/{kind}", profile=profile, kind=kind,
                  n_clients=c, total_requests=400 if quick else 1000, seed=3)
            for c in clients
            for kind in CURVES
        ]

    def table(results: Results) -> Table:
        s = _series(results, prefix, clients, CURVES, "throughput")
        return Table(
            section="throughput",
            title=f"Fig. {number} — throughput on {profile} (requests/s)",
            headers=["clients", *CURVES],
            rows=[
                [c, *(f"{value:.0f}" for value in values)]
                for c, *values in zip(clients, *s.values(), strict=True)
            ],
            claim=claim,
            violations=shape(clients, s),
            metrics={name: (value, "req/s") for name, value in metrics(s).items()},
        )

    return Artefact(cells, table)


def _fig5_shape(clients: Sequence[int], s: Series) -> list[str]:
    # "the throughput of reads was at least 13% higher than that of writes"
    return _rows_failing(clients, s, lambda r, w, o: o > r > w and r >= 1.13 * w)


def _fig6_shape(clients: Sequence[int], s: Series) -> list[str]:
    violations = []
    for kind in ("read", "write"):
        curve = dict(zip(clients, s[kind], strict=True))
        peak = max(curve, key=curve.__getitem__)
        if not (16 <= peak <= 64 and s[kind][-1] < curve[peak]):
            violations.append(f"{kind} peaks at {peak} clients")
    return violations


def _fig7_shape(clients: Sequence[int], s: Series) -> list[str]:
    return _rows_failing(clients, s, lambda *kinds: max(kinds) / min(kinds) < 1.05)


def _fig8_shape(clients: Sequence[int], s: Series) -> list[str]:
    return _rows_failing(clients, s, lambda r, w, o: r > 1.2 * w and o >= r)


# ------------------------------------------------------- transactions (§4.2)
def _table1_cells(quick: bool) -> list[RunSpec]:
    return [
        _cell("txn_rrt", f"table1/{mode}/k={k}", mode=mode, requests_per_txn=k,
              samples=60 if quick else 200, seed=2)
        for mode, k in TABLE1_PAPER_MS
    ]


def _table1(results: Results) -> Table:
    trt = {
        (mode, k): results[f"table1/{mode}/k={k}"]["trt"] for mode, k in TABLE1_PAPER_MS
    }
    reductions = [
        f"vs {base} {k}-req: "
        f"-{(1 - trt['optimized', k]['mean'] / trt[base, k]['mean']) * 100:.0f}%"
        for k in (3, 5)
        for base in ("read_write", "write_only")
    ]
    return _paper_table(
        "txn", "Table 1 — transaction response time (§4.2)", "operation", 2, 0.08,
        {
            f"{mode} {k}-req": (paper_ms * 1e-3, trt[mode, k])
            for (mode, k), paper_ms in TABLE1_PAPER_MS.items()
        },
        note="T-Paxos TRT reduction (paper: 28%, 34%, 31%, 39%): " + "; ".join(reductions),
        metrics={
            f"trt_{mode}_{k}req_s": (summary["mean"], "s")
            for (mode, k), summary in trt.items()
        },
    )


def _fig9(k: int) -> Artefact:
    def cells(quick: bool) -> list[RunSpec]:
        return [
            _cell("txn_throughput", f"fig9/k={k}/c={c:03d}/{mode}", mode=mode,
                  requests_per_txn=k, n_clients=c, total_txns=200 if quick else 400, seed=5)
            for c in CLIENTS
            for mode in MODES
        ]

    def table(results: Results) -> Table:
        s = _series(results, f"fig9/k={k}", CLIENTS, MODES, "step_throughput")
        violations = _rows_failing(CLIENTS, s, lambda rw, wo, opt: opt > rw > wo)
        gains = [opt / wo for wo, opt in zip(s["write_only"], s["optimized"], strict=True)]
        if not gains[-1] > gains[0]:
            violations.append(
                f"gain over write-only {gains[-1]:.2f}x at {CLIENTS[-1]} clients, "
                f"{gains[0]:.2f}x at {CLIENTS[0]}"
            )
        return Table(
            section="txn",
            title=f"Fig. 9{'a' if k == 3 else 'b'} — {k}-request transaction "
            "throughput (txn/s)",
            headers=["clients", "read/write", "write-only", "T-Paxos",
                     "gain vs r/w", "gain vs w-only"],
            rows=[
                [c, f"{rw:.0f}", f"{wo:.0f}", f"{opt:.0f}",
                 f"+{(opt / rw - 1) * 100:.0f}%", f"+{(opt / wo - 1) * 100:.0f}%"]
                for c, rw, wo, opt in zip(CLIENTS, *s.values(), strict=True)
            ],
            claim="T-Paxos > read/write > write-only at every client count, and its "
            "gain over write-only is larger at 16 clients than at 1",
            violations=violations,
            metrics={f"{mode}_txn_throughput_16c": (s[mode][-1], "txn/s") for mode in MODES},
        )

    return Artefact(cells, table)


# -------------------------------------------------------------------- records
FIGURES = (
    Figure("rrt_sysnet", [_rrt("sysnet", 0.05)]),
    Figure(
        "fig5_throughput_sysnet",
        [
            _throughput(
                5, "sysnet", CLIENTS,
                "original > read >= 1.13 x write at every client count",
                _fig5_shape,
                lambda s: {f"{kind}_throughput_16c": s[kind][-1] for kind in CURVES},
            )
        ],
    ),
    Figure(
        "fig6_many_clients",
        [
            _throughput(
                6, "sysnet", (8, 16, 32, 64, 128),
                "read and write peak between 16 and 64 clients and are lower at 128",
                _fig6_shape,
                lambda s: {f"{kind}_peak_throughput": max(s[kind]) for kind in CURVES},
            )
        ],
    ),
    Figure(
        "fig7_berkeley_princeton",
        [
            _rrt("berkeley_princeton", 0.03),
            _throughput(
                7, "berkeley_princeton", CLIENTS,
                "the three curves coincide (within 5%) because m << M",
                _fig7_shape,
            ),
        ],
    ),
    Figure(
        "fig8_wan",
        [
            _rrt("wan", 0.03),
            _throughput(
                8, "wan", CLIENTS,
                "read (X-Paxos) > 1.2 x write and original >= read at every client count",
                _fig8_shape,
            ),
        ],
    ),
    Figure("table1_trt", [Artefact(_table1_cells, _table1)]),
    Figure("fig9_txn_throughput_3req", [_fig9(3)]),
    Figure("fig9_txn_throughput_5req", [_fig9(5)]),
)


def figures_grid(quick: bool = False) -> list[RunSpec]:
    """Every cell of §4 as one independent run: the records' cells, in
    record order. Keys are ``rrt/<profile>/<kind>``,
    ``throughput/fig<n>/<profile>/c=<n>/<kind>``, ``table1/<mode>/k=<k>``
    and ``fig9/k=<k>/c=<n>/<mode>``, with seeds 1/3/2/5 respectively."""
    return [spec for figure in FIGURES for spec in figure.cells(quick)]


# ------------------------------------------------------------------ rendering
def md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _blocks(table: Table, fmt: Callable[..., str]) -> list[str]:
    verdict = "holds" if not table.violations else "VIOLATED: " + "; ".join(table.violations)
    return [
        table.title,
        fmt(table.headers, table.rows),
        *([table.note] if table.note else []),
        f"Paper check: {table.claim} — {verdict}",
    ]


def render_text(table: Table) -> str:
    """Aligned plain text, as ``benchmarks/results/<stem>.txt`` holds it."""
    return "\n".join(_blocks(table, format_table))


def render_markdown(table: Table) -> str:
    return "### " + "\n\n".join(_blocks(table, md_table))


def report(results: Results, elapsed: float) -> str:
    """EXPERIMENTS.md: every table of every figure under its section
    heading, from one run of :func:`figures_grid`."""
    tables = [table for figure in FIGURES for table in figure.tables(results)]
    body = [
        "# EXPERIMENTS — paper vs. measured",
        "Regenerate this file with `python -m repro experiments > EXPERIMENTS.md`"
        " (add `--quick` for a fast smoke run). Every number below is produced"
        " by the deterministic simulator; latency targets reproduce the paper"
        " within a few percent, throughput reproduces the paper's *shapes*"
        " (orderings, crossovers, peaks) — absolute throughput depends on"
        " testbed constants the paper does not fully specify.",
    ]
    for section, heading in SECTIONS.items():
        body.append(f"## {heading}")
        body.extend(render_markdown(t) for t in tables if t.section == section)
    body += [
        "## Ablations",
        "Ablation benches (not in the paper's tables, called out in its text)"
        " live in `benchmarks/`: leader-switch sensitivity (§3.6), t > 1"
        " degradation under wide-area variance (§4.3), and state-transfer"
        " payload/latency vs state size (§3.3). Run"
        " `pytest benchmarks/ --benchmark-only`; results land in"
        " `benchmarks/results/`.",
        f"_Generated in {elapsed:.1f}s of host time._",
    ]
    return "\n\n".join(body)
