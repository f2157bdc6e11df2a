"""One run of one workload: set-up, timed repeats, gate, metrics.

``run_untraced`` produces the end-to-end metrics (``--trace 0``) and
``run_traced`` the per-layer ones (``--trace 1``). Importing this module
imports the program, so set-up time — measured from the interpreter's first
line in ``__main__`` to the end of the warm-up repeat — includes it.
"""

from __future__ import annotations

import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

from benchmarks.suite import rungs, spec, trace
from benchmarks.suite.calibrate import SPIN_REFERENCE_S, reference_seconds, spin_reading
from benchmarks.suite.workloads import WORKLOADS, Repeat, Workload, percentile

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: The warm-up repeat is this share of a timed one: enough to import every
#: module, fill the caches and run each code path the timed repeats take.
WARMUP_SHARE = 0.25
MIN_REPEATS = 3
#: Set-up is sampled this many times per run (this process, then fresh
#: interpreters one at a time) and reported as the median.
SETUP_SAMPLES = 3


@dataclass
class Result:
    """What one run reports; ``detail()`` and ``last_line()`` serialize it."""

    workload: str
    seed: int
    trace: int
    attempted: int = 0
    failed: int = 0
    repeats: int = 0
    problems: list[str] = field(default_factory=list)
    #: name -> {"value", "unit", "q1", "q3", "n"}
    metrics: dict[str, dict[str, object]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def detail(self) -> dict[str, object]:
        return {**asdict(self), "correct": self.correct}

    def last_line(self) -> str:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in self.metrics.items()
        }
        return json.dumps(
            {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
             "metrics": metrics}
        )


def summarize(values: Sequence[float], unit: str) -> dict[str, object]:
    """Median with quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def set_up(name: str, seed: int, scale: float, t0: float) -> tuple[Workload, float]:
    """The warm-up repeat (imports happened when this module loaded).
    Returns the workload and the set-up time since ``t0``, in reference-host
    seconds like every other host time the suite gates on."""
    workload = WORKLOADS[name]
    rep = workload.repeat(seed, scale * WARMUP_SHARE)
    if rep.problems or rep.ok != rep.attempted:
        raise RuntimeError(f"{name}: warm-up repeat failed: {rep.problems or 'requests not OK'}")
    elapsed = time.perf_counter() - t0
    reading = spin_reading()
    return workload, reference_seconds(elapsed, reading, reading)


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, as that interpreter measured it."""
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _timed_repeats(
    workload: Workload, seed: int, scale: float, seconds: float
) -> tuple[list[Repeat], list[float]]:
    """Repeat until ``seconds`` have passed (stop early rather than overrun
    by more than half a repeat). Returns the repeats and the host-speed
    readings taken around them: ``readings[i]`` before, ``[i + 1]`` after."""
    repeats: list[Repeat] = []
    readings = [spin_reading()]
    started = time.perf_counter()
    while True:
        repeats.append(workload.repeat(seed, scale))
        readings.append(spin_reading())
        elapsed = time.perf_counter() - started
        if len(repeats) >= MIN_REPEATS and elapsed + 0.5 * elapsed / len(repeats) >= seconds:
            return repeats, readings


def _gate(result: Result, repeats: Sequence[Repeat]) -> None:
    """Fold the repeats' attempts, failures and named problems into ``result``."""
    for rep in repeats:
        result.attempted += rep.attempted
        result.failed += rep.attempted - rep.ok
        for problem in rep.problems:
            if problem not in result.problems:
                result.problems.append(problem)
    first = repeats[0].sim
    if any(rep.sim != first for rep in repeats[1:]):
        result.problems.append("determinism: sim_* values differ between repeats of one seed")
    if result.failed:
        result.problems.append(f"{result.failed} of {result.attempted} requests not completed OK")
    result.repeats = len(repeats)


def run_untraced(
    name: str, seed: int, seconds: float, scale: float, t0: float,
    setup_samples: int = SETUP_SAMPLES,
) -> Result:
    workload, own_setup = set_up(name, seed, scale, t0)
    setups = [own_setup, *(setup_probe(name, seed) for _ in range(setup_samples - 1))]

    repeats, readings = _timed_repeats(workload, seed, scale, seconds)
    result = Result(name, seed, trace=0)
    _gate(result, repeats)
    sim = repeats[0].sim
    if workload.sim_twin is not None:
        sim = workload.sim_twin(seed, scale)

    rates = [
        rep.ok / reference_seconds(rep.wall_s, readings[i], readings[i + 1])
        for i, rep in enumerate(repeats)
        if rep.wall_s > 0
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": setups,
        "req_per_host_s": rates,
        **{key: [value] for key, value in sim.items()},
        "peak_rss_mb": [peak_rss_mb],
    }
    result.metrics = {m.name: summarize(values[m.name], m.unit) for m in spec.END_TO_END}
    return result


def run_traced(name: str, seed: int, scale: float) -> Result:
    workload, _ = set_up(name, seed, scale, time.perf_counter())
    plain = [workload.repeat(seed, scale) for _ in range(MIN_REPEATS)]
    traced, shares = trace.traced_repeat(workload, seed, scale)
    result = Result(name, seed, trace=1)
    _gate(result, [*plain, traced])

    values = dict.fromkeys(spec.PER_LAYER_BY_NAME, 0.0)
    # Counts do not depend on host timing (sim-*: exact), so the traced
    # repeat's are as good as any — and it is the one TCP repeat that
    # carries a registry.
    values.update(traced.counts)
    wall_rrts = [rrt for rep in plain for rrt in rep.wall_rrts_ms]
    values["client.wall_rrt_p50_ms"] = percentile(wall_rrts, 0.50)
    values["client.wall_rrt_p99_ms"] = percentile(wall_rrts, 0.99)
    values.update(shares)
    values["trace.overhead_ratio"] = traced.wall_s / statistics.median(r.wall_s for r in plain)
    values["host.speed_ratio"] = SPIN_REFERENCE_S / statistics.median(
        spin_reading() for _ in range(5)
    )
    values.update(rungs.all_rungs(seed))
    result.metrics = {m.name: summarize([values[m.name]], m.unit) for m in spec.PER_LAYER}
    return result
