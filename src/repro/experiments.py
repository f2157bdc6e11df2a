"""The paper's §4 evaluation and the ablations behind the claims of its
text: one record per results file, and nothing else knows what a figure is.

§4 has ten artefacts — the Sysnet, Berkeley->Princeton and WAN response
times, Figs. 5-8, Table 1, Figs. 9a and 9b; seven ablations follow them
(§3.3's state-transfer modes, §3.6's leader switching, §4.3's t > 1, the
message counts behind §3.4, fsync disciplines, sharding, open-loop load).
An :class:`Artefact` is the grid cells one of them needs (at quick and full
size) and how to read their keyed results into a :class:`Table`: rows, the
paper's claim about them, and where the measured numbers contradict it. A
:class:`Figure` groups the artefacts written to one results file. Every
consumer is a view over :data:`FIGURES`:

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

from repro.analysis.queueing import sysnet_model
from repro.analysis.report import percent_change
from repro.net.profiles import get_profile
from repro.parallel.spec import KINDS, RunSpec
from repro.storage import FSYNC_MODES
from repro.util.tables import format_table

#: ``{run key: task result}``, as :func:`repro.parallel.runner.run_grid` returns it.
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
    "ablation": "Ablations",
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
    """One of §4's ten tables and figures, or an ablation: the grid cells
    it needs (``quick ->`` run specs) and how to read their results."""

    cells: Callable[[bool], list[RunSpec]]
    table: Callable[[Results], Table]


@dataclass(frozen=True)
class Figure:
    """One results file: ``benchmarks/results/<stem>.txt`` and
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


# ------------------------------------------------------------------ ablations
def _ablation(
    stem: str, seed: int, grid: dict[str, dict[str, Any]], table: Callable[[Results], Table]
) -> Figure:
    """An ablation runs at one size whether quick or not: ``grid`` maps a
    cell's name to the params of task ``stem``, and ``table`` reads the
    results keyed by those names."""

    def cells(quick: bool) -> list[RunSpec]:
        return [
            _cell(stem, f"{stem}/{name}", seed=seed, **params) for name, params in grid.items()
        ]

    def read(results: Results) -> Table:
        return table({name: results[f"{stem}/{name}"] for name in grid})

    return Figure(stem, [Artefact(cells, read)])


def _unless(*checks: tuple[bool, str]) -> list[str]:
    """The messages of the checks that do not hold."""
    return [message for holds, message in checks if not holds]


TRANSFER_SIZES = (100, 10_000, 1_000_000)
TRANSFER_MODES = ("full", "delta", "repro")


def _state_transfer(r: Results) -> Table:
    small, big = TRANSFER_SIZES[0], TRANSFER_SIZES[-1]
    rrt = {name: cell["rrt"]["mean"] for name, cell in r.items()}
    payload = {name: cell["mean_payload_bytes"] for name, cell in r.items()}
    return Table(
        section="ablation",
        title="§3.3 — write RRT and shipped payload vs state size",
        headers=["state (bytes)", "mode", "write RRT (ms)", "payload (B)"],
        rows=[
            [f"{size:>9,}", mode, f"{rrt[f'{mode}/{size}'] * 1e3:.3f}",
             f"{payload[f'{mode}/{size}']:,.0f}"]
            for size in TRANSFER_SIZES
            for mode in TRANSFER_MODES
        ],
        claim="FULL's payload grows with the state (over 100x from 100 B to 1 MB) and "
        "makes its 1 MB write over 1.5x DELTA's; DELTA and REPRO payloads stay within 2x",
        violations=_unless(
            (payload[f"full/{big}"] > 100 * payload[f"full/{small}"],
             "FULL's payload grows under 100x"),
            *(
                (0.5 < payload[f"{mode}/{big}"] / payload[f"{mode}/{small}"] < 2.0,
                 f"{mode}'s payload does not stay within 2x")
                for mode in ("delta", "repro")
            ),
            (rrt[f"full/{big}"] > 1.5 * rrt[f"delta/{big}"],
             "FULL's 1 MB write is under 1.5x DELTA's"),
        ),
        metrics={
            "full_1mb_write_rrt_s": (rrt[f"full/{big}"], "s"),
            "delta_1mb_payload_bytes": (payload[f"delta/{big}"], "B"),
        },
    )


N = 3
#: Cell -> (row label, formula, messages at n = 3, tolerance): a request
#: goes to all n replicas and gets one reply; a read adds n-1 confirms; a
#: write an accept, an ack and a chosen per backup; a T-Paxos transaction
#: costs an original request per operation and one write to commit.
MESSAGE_COUNTS = {
    "original": ("original", "n + 1", N + 1, 0.6),
    "read": ("read", "n + (n-1) + 1", N + (N - 1) + 1, 0.6),
    "write": ("write", "n + 3(n-1) + 1", N + 3 * (N - 1) + 1, 0.6),
    "txn": ("T-Paxos 3-op txn", "3(n+1) + write", 3 * (N + 1) + N + 3 * (N - 1) + 1, 1.5),
}


def _message_complexity(r: Results) -> Table:
    measured = {kind: r[kind]["msgs_per_step"] for kind in MESSAGE_COUNTS}
    return Table(
        section="ablation",
        title="Message complexity per request (n = 3, failure-free, quiet pipeline)",
        headers=["request", "formula", "expected", "measured"],
        rows=[
            [label, formula, expected, f"{measured[kind]:.2f}"]
            for kind, (label, formula, expected, _) in MESSAGE_COUNTS.items()
        ],
        claim="every count within 0.6 messages of its formula (1.5 for the transaction)",
        violations=[
            f"{label} takes {measured[kind]:.2f} messages, not {expected}"
            for kind, (label, _, expected, tolerance) in MESSAGE_COUNTS.items()
            if abs(measured[kind] - expected) > tolerance
        ],
        metrics={f"{kind}_msgs_per_req": (value, "msg") for kind, value in measured.items()},
    )


WORKLOADS = ("write", "read", "txn")


def _leader_switch(r: Results) -> Table:
    inflation = {
        w: r[f"{w}/switching"]["duration"] / r[f"{w}/stable"]["duration"] for w in WORKLOADS
    }
    aborts = {w: r[f"{w}/switching"]["aborted_steps"] for w in WORKLOADS}
    return Table(
        section="ablation",
        title="§3.6 — completion time under forced leader switches (every 50 ms)",
        headers=["workload", "stable (ms)", "switching (ms)", "inflation", "txn aborts"],
        rows=[
            [w, f"{r[f'{w}/stable']['duration'] * 1e3:.1f}",
             f"{r[f'{w}/switching']['duration'] * 1e3:.1f}", f"{inflation[w]:.2f}x", aborts[w]]
            for w in WORKLOADS
        ],
        claim="X-Paxos reads and T-Paxos transactions inflate by at least 0.1x more than "
        "basic-protocol writes (queued writes survive a recovery; pending reads and open "
        "transactions do not), and only transactions abort",
        violations=_unless(
            *(
                (inflation[w] > inflation["write"] + 0.1,
                 f"{w} inflates {inflation[w]:.2f}x, write {inflation['write']:.2f}x")
                for w in ("read", "txn")
            ),
            (aborts["txn"] > 0 and aborts["write"] == aborts["read"] == 0,
             "aborts: " + ", ".join(f"{w} {n}" for w, n in aborts.items())),
        ),
        metrics={f"{w}_inflation": (inflation[w], "x") for w in WORKLOADS},
    )


REPLICA_COUNTS = (3, 5, 7)


def _t_sweep(r: Results) -> Table:
    read, write = (
        [r[f"n={n}/{kind}"]["rrt"]["mean"] for n in REPLICA_COUNTS] for kind in ("read", "write")
    )
    return Table(
        section="ablation",
        title="§4.3 — RRT vs replication degree (high-variance client links)",
        headers=["n", "t", "read RRT (ms)", "write RRT (ms)"],
        rows=[
            [n, (n - 1) // 2, f"{rd * 1e3:.2f}", f"{wr * 1e3:.2f}"]
            for n, rd, wr in zip(REPLICA_COUNTS, read, write, strict=True)
        ],
        claim="X-Paxos reads slow down as t grows (mildly, by over 0.5% from t = 1 to 3: "
        'the leg to the leader dominates — the paper\'s "could result in performance '
        'degrading"); basic-protocol writes move under 2%',
        violations=_unless(
            (read[0] < read[1] < read[2] and read[2] > 1.005 * read[0],
             "read RRT does not rise with t"),
            (abs(write[2] - write[0]) < 0.02 * write[0], "write RRT moves 2% or more"),
        ),
        metrics={"read_rrt_n7_s": (read[-1], "s"), "write_rrt_n7_s": (write[-1], "s")},
    )


def _fsync_modes(r: Results) -> Table:
    took = {mode: cell["duration"] for mode, cell in r.items()}
    fsyncs = {mode: cell["fsyncs"] for mode, cell in r.items()}
    return Table(
        section="ablation",
        title="Stable storage — one write workload under each fsync discipline",
        headers=["fsync", "duration (ms)", "req/s", "fsyncs", "appends"],
        rows=[
            [mode, f"{cell['duration'] * 1e3:.1f}", f"{cell['throughput']:.0f}",
             cell["fsyncs"], cell["appends"]]
            for mode, cell in r.items()
        ],
        claim="async is fastest and never fsyncs; sync and group pay for durability with "
        "far fewer fsyncs than appends, and since the pipeline already puts one barrier "
        "on a consensus round, group saves no fsync over sync and only adds its window",
        violations=_unless(
            (took["async"] < took["sync"] <= took["group"],
             "durations are not async < sync <= group"),
            (fsyncs["async"] == 0, f"async issues {fsyncs['async']} fsyncs"),
            (0 < fsyncs["group"] <= fsyncs["sync"] < r["sync"]["appends"],
             "not 0 < group fsyncs <= sync fsyncs < appends"),
        ),
        metrics={f"{mode}_throughput": (cell["throughput"], "req/s") for mode, cell in r.items()},
    )


GROUP_COUNTS = (1, 4)
#: What four leader pipelines must give over one: protocol latency and the
#: shared per-process fsync clock eat some of the ideal 4x.
SHARDING_MIN_SPEEDUP = 2.5


def _sharding(r: Results) -> Table:
    one, four = r.values()
    speedup = four["throughput"] / one["throughput"]
    return Table(
        section="ablation",
        title="Sharded replication — same keyed write workload, 1 vs 4 groups",
        headers=["groups", "duration (ms)", "req/s", "mean rrt (ms)"],
        rows=[
            [g, f"{cell['duration'] * 1e3:.1f}", f"{cell['throughput']:.0f}",
             f"{cell['rrt']['mean'] * 1e3:.2f}"]
            for g, cell in zip(GROUP_COUNTS, r.values(), strict=True)
        ],
        note=f"E = 1 ms per request, one leader pipeline per group; speedup at 4 groups: "
        f"{speedup:.2f}x",
        claim=f"four groups give at least {SHARDING_MIN_SPEEDUP}x one's throughput, "
        "at a lower mean RRT",
        violations=_unless(
            (speedup >= SHARDING_MIN_SPEEDUP, f"speedup is {speedup:.2f}x"),
            (four["rrt"]["mean"] < one["rrt"]["mean"], "mean RRT is not lower at 4 groups"),
        ),
        metrics={
            "groups1_throughput": (one["throughput"], "req/s"),
            "groups4_throughput": (four["throughput"], "req/s"),
            "sharding_speedup": (speedup, "x"),
        },
    )


#: Offered load as a fraction of the leader's capacity 1/S for original
#: requests, S from the queueing model of the closed-loop figures.
LOADS = (0.2, 0.5, 0.8, 0.95, 1.1)
CAPACITY = 1.0 / sysnet_model("original").service


def _latency_throughput(r: Results) -> Table:
    mean = {load: r[f"load={load:.2f}"]["rrt"]["mean"] for load in LOADS}
    return Table(
        section="ablation",
        title="Open-loop latency vs offered load (original requests, Sysnet)",
        headers=["load/capacity", "rate (req/s)", "completed", "mean RRT (ms)", "p99 RRT (ms)"],
        rows=[
            [f"{load:.2f}", f"{CAPACITY * load:,.0f}", cell["total_requests"],
             f"{cell['rrt']['mean'] * 1e3:.3f}", f"{cell['rrt']['p99'] * 1e3:.3f}"]
            for load in LOADS
            for cell in [r[f"load={load:.2f}"]]
        ],
        note=f"modeled leader capacity 1/S = {CAPACITY:,.0f} req/s",
        claim="the knee sits at the modeled capacity: mean RRT at 50% load is under 1.5x "
        "that at 20%, at 95% already over 1.2x that at 50%, at 110% over 3x that at 20%",
        violations=_unless(
            (mean[0.5] < 1.5 * mean[0.2], "not flat up to 50% load"),
            (mean[0.95] > 1.2 * mean[0.5], "no bend at 95% load"),
            (mean[1.1] > 3 * mean[0.2], "no knee past capacity"),
        ),
        metrics={
            "rrt_mean_s_50pct_load": (mean[0.5], "s"),
            "rrt_mean_s_95pct_load": (mean[0.95], "s"),
        },
    )


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
    _ablation(
        "state_transfer", 4,
        {
            f"{mode}/{size}": {"mode": mode, "state_size": size}
            for size in TRANSFER_SIZES
            for mode in TRANSFER_MODES
        },
        _state_transfer,
    ),
    _ablation(
        "message_complexity", 2,
        {kind: {"kind": kind} for kind in MESSAGE_COUNTS},
        _message_complexity,
    ),
    _ablation(
        "leader_switch", 7,
        {
            f"{w}/{name}": {"workload": w, "switches": switches}
            for w in WORKLOADS
            for name, switches in (("stable", False), ("switching", True))
        },
        _leader_switch,
    ),
    _ablation(
        "t_sweep", 9,
        {
            f"n={n}/{kind}": {"kind": kind, "n_replicas": n}
            for n in REPLICA_COUNTS
            for kind in ("read", "write")
        },
        _t_sweep,
    ),
    _ablation("fsync_modes", 11, {mode: {"fsync": mode} for mode in FSYNC_MODES}, _fsync_modes),
    _ablation("sharding", 5, {f"groups={g}": {"groups": g} for g in GROUP_COUNTS}, _sharding),
    _ablation(
        "latency_throughput", 3,
        {f"load={load:.2f}": {"kind": "original", "rate": CAPACITY * load} for load in LOADS},
        _latency_throughput,
    ),
)


def figures_grid(quick: bool = False) -> list[RunSpec]:
    """Every cell of §4 and of the ablations as one independent run: the
    records' cells, in record order. Keys are ``rrt/<profile>/<kind>``,
    ``throughput/fig<n>/<profile>/c=<n>/<kind>``, ``table1/<mode>/k=<k>``
    and ``fig9/k=<k>/c=<n>/<mode>``, with seeds 1/3/2/5 respectively, then
    ``<stem>/<cell>`` for each ablation, with the seed its record names."""
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
    body.append(f"_Generated in {elapsed:.1f}s of host time._")
    return "\n\n".join(body)
