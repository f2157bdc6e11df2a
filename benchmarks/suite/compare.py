"""``--compare A.json B.json``: is B worse than A, by the suite's own bounds?

One row per (workload, metric): both medians, the ratio B/A with its base,
the bound, and a verdict —

* ``ok``         B is not worse than A by more than the bound;
* ``worse``      it is (the command then exits non-zero);
* ``unresolved`` either side's run-to-run spread (quartile distance over
  median) is wider than the bound, so the medians cannot be told apart;
* ``info``       a per-layer metric: it explains, it does not gate.

``failed_ops_ratio`` (failed / attempted) is judged absolutely: any failure
in B that A did not have is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from collections.abc import Mapping

from benchmarks.suite import spec


def _load(path: pathlib.Path) -> dict[str, object]:
    document = json.loads(path.read_text())
    if document.get("schema") != 1 or "workloads" not in document:
        raise SystemExit(f"{path}: not a benchmarks.suite --out file")
    if document.get("quick"):
        raise SystemExit(f"{path}: a --quick run is not comparable; run the full suite")
    return document


def _spread(m: Mapping[str, float]) -> float:
    return abs(m["q3"] - m["q1"]) / abs(m["value"]) if m["value"] else 0.0


def _worsening(metric: spec.Metric, a: float, b: float) -> float:
    """Share of A's median by which B is worse (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def _row(
    workload: str, metric: spec.Metric, a: Mapping[str, float], b: Mapping[str, float]
) -> tuple[str, str]:
    ratio = b["value"] / a["value"] if a["value"] else float("nan")
    if metric.bound is None:
        verdict, bound = "info", "-"
    else:
        bound = f"{metric.bound:.0%}"
        if max(_spread(a), _spread(b)) > metric.bound:
            verdict = "unresolved"
        elif _worsening(metric, a["value"], b["value"]) > metric.bound:
            verdict = "worse"
        else:
            verdict = "ok"
    line = (f"{workload:<15} {metric.name:<36} {a['value']:>13.6g} {b['value']:>13.6g} "
            f"{ratio:>8.4f} of {a['value']:<11.6g} {metric.unit:<6} {metric.better:<6} "
            f"{bound:>5}  {verdict}")
    return line, verdict


def compare_files(a_path: pathlib.Path, b_path: pathlib.Path) -> int:
    a_doc, b_doc = _load(a_path), _load(b_path)
    if a_doc["seed"] != b_doc["seed"]:
        print(f"note: seeds differ ({a_doc['seed']} vs {b_doc['seed']}); sim_* values "
              "are only expected to be identical for one seed")
    print(f"{'workload':<15} {'metric':<36} {'A median':>13} {'B median':>13} "
          f"{'B/A':>8}    {'(base A)':<11} {'unit':<6} {'better':<6} {'bound':>5}  verdict")
    verdicts: Counter[str] = Counter()
    for workload in spec.WORKLOAD_NAMES:
        a_entry = a_doc["workloads"].get(workload, {})
        b_entry = b_doc["workloads"].get(workload, {})
        for section, catalogue in (("end_to_end", spec.END_TO_END), ("layers", spec.PER_LAYER)):
            a_run, b_run = a_entry.get(section), b_entry.get(section)
            if not a_run or not b_run:
                if section == "end_to_end":
                    print(f"{workload:<15} missing from one side")
                    verdicts["worse"] += 1
                continue
            for metric in catalogue:
                line, verdict = _row(
                    workload, metric, a_run["metrics"][metric.name], b_run["metrics"][metric.name]
                )
                print(line)
                verdicts[verdict] += 1
            if section == "end_to_end":
                a_failed = a_run["failed"] / a_run["attempted"]
                b_failed = b_run["failed"] / b_run["attempted"]
                bad = b_failed > a_failed or not b_run["correct"]
                verdict = "worse" if bad else "ok"
                print(f"{workload:<15} {'failed_ops_ratio':<36} {a_failed:>13.6g} "
                      f"{b_failed:>13.6g} {'':>8}    {'':<11} {'ratio':<6} {'lower':<6} "
                      f"{'0 abs':>5}  {verdict}")
                verdicts[verdict] += 1
    print(", ".join(f"{count} {verdict}" for verdict, count in sorted(verdicts.items())))
    return 1 if verdicts["worse"] else 0
