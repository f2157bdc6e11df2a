"""Perf-regression tier — opt in with ``pytest tests/perf --perf``.

Two kinds of guard:

* **Throughput floors** (`floors.json`): hard minimums for the simulation
  hot path and the sweep runner's overlap. Floors carry large headroom
  over the calibrated reference (see the file's comment), so they gate
  real regressions — a reverted optimization, an accidental O(n) in the
  event loop — not machine speed.
* **No handle per fire-and-forget event**: ``post_at`` traffic must leave
  ``Kernel.handles_created`` untouched. This one is exact, not a floor: a
  single allocation per event is a bug regardless of how fast the box is.
* **Cost ratios**: what a feature (default metrics, byte accounting)
  costs, as the ratio of the bytecodes a run executes with and without
  it — a count, so neither machine speed nor a neighbour's load enters.
  The median host-time ratio of back-to-back pairs is printed beside it.
* **Import budget**: a simulated run loads only the code it executes —
  no numpy, asyncio, linter, sweep runner or exporter (exact, by name),
  also when ``TcpRuntime`` was imported.

Every test prints its measurement so re-calibrating floors is one run.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import pytest

from repro.sim.kernel import Kernel

FLOORS = json.loads((pathlib.Path(__file__).parent / "floors.json").read_text())

pytestmark = pytest.mark.perf


def _floor(metric: str) -> float:
    return float(FLOORS[metric]["floor"])


class TestThroughputFloors:
    def test_kernel_event_throughput(self):
        kernel = Kernel()

        def repost() -> None:
            kernel.post_at(kernel.now + 1e-6, repost)

        for _ in range(8):
            kernel.post_at(0.0, repost)
        kernel.run(max_events=20_000)  # warm-up: caches
        start = time.perf_counter()
        processed = kernel.run(max_events=200_000)
        elapsed = time.perf_counter() - start
        rate = processed / elapsed
        print(f"\nkernel_events_per_s = {rate:,.0f}")
        assert rate >= _floor("kernel_events_per_s")

    def test_rrt_scenario_throughput(self):
        from repro.cluster.scenarios import rrt_scenario

        rrt_scenario("sysnet", "write", samples=40, seed=1)  # warm imports
        start = time.perf_counter()
        result = rrt_scenario("sysnet", "write", samples=400, seed=1)
        elapsed = time.perf_counter() - start
        rate = result.total_requests / elapsed
        print(f"\nrrt_sysnet_write_req_per_s = {rate:,.0f}")
        assert rate >= _floor("rrt_sysnet_write_req_per_s")

    def test_tcp_closed_loop_throughput(self):
        """``tcp-write``'s shape — 3 replicas + 2 closed-loop clients x 300
        KV writes over real localhost TCP — as requests per wall second,
        first client start to last client finish, fastest of three runs.
        The floor catches a data path that got twice as slow; the smaller
        steps (a loop hop per message, a frame pickled per destination) are
        pinned exactly, by counts, in tests/integration/test_transports.py:
        the stream-coroutine path PR 21 replaced read 1 263-1 436 here."""
        from repro.client.client import Client
        from repro.client.workload import single_kind_steps
        from repro.core.config import ReplicaConfig
        from repro.core.replica import Replica
        from repro.election.static import StaticElector
        from repro.services.kvstore import KVStoreService
        from repro.transport.tcp import TcpRuntime
        from repro.types import RequestKind

        peers = ("r0", "r1", "r2")
        writes = 300

        def once() -> float:
            runtime = TcpRuntime(seed=1)
            config = ReplicaConfig(peers=peers)
            for pid in peers:
                runtime.add(Replica(pid, config, KVStoreService, StaticElector("r0")))
            clients = [
                runtime.add(Client(
                    f"c{c}", replicas=peers, timeout=1.0, wait_for_start=False,
                    steps=single_kind_steps(
                        RequestKind.WRITE, writes, op=lambda i, c=c: ("put", f"k{c}", i)
                    ),
                ))
                for c in range(2)
            ]
            runtime.start()
            try:
                assert runtime.run_until(lambda: all(c.done for c in clients), timeout=60.0)
            finally:
                runtime.shutdown()
            span = max(c.finished_at for c in clients) - min(c.started_at for c in clients)
            return len(clients) * writes / span

        once()  # warm imports and type registries
        rate = max(once() for _ in range(3))
        print(f"\ntcp_closed_loop_req_per_s = {rate:,.0f}")
        assert rate >= _floor("tcp_closed_loop_req_per_s")

    def test_sweep_overlap_speedup(self, monkeypatch):
        """The runner must overlap runs: 12 sleep-bound runs on 4 workers
        finish in far less than the serial sum. Sleeps (not spins) so the
        floor holds on single-core CI boxes — this measures the scheduler,
        not the core count."""
        from repro.parallel.runner import run_grid
        from repro.parallel.spec import RunSpec
        from repro.parallel.tasks import TASKS

        def nap(params):
            start = time.perf_counter()
            time.sleep(params["sleep"])
            return time.perf_counter() - start

        monkeypatch.setitem(TASKS, "nap", nap)  # forked workers inherit it
        specs = [
            RunSpec(task="nap", key=f"sleep/{i:02d}", params={"sleep": 0.1})
            for i in range(12)
        ]
        start = time.perf_counter()
        busy = sum(run_grid(specs, workers=4).values())
        wall = time.perf_counter() - start
        speedup = busy / wall
        print(f"\nsweep_overlap_speedup = {speedup:.2f} "
              f"(busy {busy:.2f}s / wall {wall:.2f}s)")
        assert speedup >= _floor("sweep_overlap_speedup")


def _paired_cost_ratio(numerator, denominator, pairs: int = 11) -> tuple[float, str]:
    """Median of per-pair host-time ratios. Each pair runs back to back, so
    machine-speed drift between pairs cancels out instead of masquerading
    as the cost being measured."""
    ratios = sorted(numerator() / denominator() for _ in range(pairs))
    return ratios[len(ratios) // 2], ", ".join(f"{r:.2f}" for r in ratios)


class TestDefaultInstrumentationCost:
    """What every harness user pays for the defaults ``metrics=True`` and
    ``measure_bytes=True``, on the suite's ``sim-write`` shape (8 closed-loop
    clients, basic-protocol WRITEs, sysnet).

    The gate is the ratio of the bytecodes each side runs, counted with
    the opcode tracing of ``benchmarks/opcount.py``: a count is the same
    on every run and every box. Host time is printed beside it, not gated:
    timed in CPU time, the median of 21 pairs still read 1.154 and 1.326
    against these bounds on a shared 2-core box, with pairs spread
    0.76-1.73."""

    @staticmethod
    def _write_run(**spec_overrides) -> float:
        from repro.cluster.scenarios import throughput_scenario

        start = time.process_time()
        throughput_scenario(
            "sysnet", "write", 8, total_requests=2000, seed=11, **spec_overrides
        )
        return time.process_time() - start

    @classmethod
    def _write_bytecodes(cls, **spec_overrides) -> int:
        from benchmarks.opcount import OpcodeCounter

        counter = OpcodeCounter()
        counter.enable()
        try:
            cls._write_run(**spec_overrides)
        finally:
            counter.disable()
        return sum(counter.by_code.values())

    def _cost_ratio(self, without: dict, pairs: int) -> float:
        """Bytecodes with the defaults / bytecodes ``without``; prints the
        host-time ratio of ``pairs`` pairs too."""
        self._write_run()  # warm imports, type registries and plans
        ratio = self._write_bytecodes() / self._write_bytecodes(**without)
        host, spread = _paired_cost_ratio(
            self._write_run, lambda: self._write_run(**without), pairs=pairs
        )
        flag = ", ".join(f"{k}={v}" for k, v in without.items())
        print(f"\ndefault / {flag} bytecode ratio = {ratio:.4f}, "
              f"host-time ratio = {host:.3f} (pairs: {spread})")
        return ratio

    def test_byte_accounting_cost_bounded(self):
        """Modelled wire bytes (one compiled sizer per send) must stay
        within 15% of a run that counts no bytes. ISSUE 12 asked for 10%.
        With the per-type compiled sizers of PR 18 host time read
        1.00-1.11; one pickle per send, which the model replaced, read
        1.27-1.37. The bytecode ratio reads 1.108."""
        assert self._cost_ratio({"measure_bytes": False}, pairs=21) <= 1.15

    def test_metrics_cost_bounded(self):
        """All default instrumentation (counters, histograms, bytes) must
        stay within 30% of a run with ``metrics=False`` (host time read
        1.45-1.59 before PR 12, 0.99-1.09 after PR 18). The bytecode ratio
        reads 1.250."""
        assert self._cost_ratio({"metrics": False}, pairs=11) <= 1.30


class TestZeroAllocationGrowth:
    def test_post_at_traffic_leaves_handles_created_untouched(self):
        """A fire-and-forget event is its heap tuple: steady post_at
        traffic constructs no EventHandle, warm or cold."""
        kernel = Kernel()

        def repost() -> None:
            kernel.post_at(kernel.now + 1e-6, repost)

        for _ in range(16):
            kernel.post_at(0.0, repost)
        kernel.run(max_events=100_000)
        print(f"\nhandles created by 100k post_at events = {kernel.handles_created}")
        assert kernel.handles_created == 0

    def test_simulation_run_allocation_plateau(self):
        """A full cluster run's handle count is dominated by held timers,
        not deliveries: handles scale far slower than events processed."""
        from repro.client.workload import single_kind_steps
        from repro.cluster.harness import Cluster, ClusterSpec
        from repro.net.profiles import get_profile
        from repro.types import RequestKind

        def handles_per_event(samples: int) -> tuple[int, int]:
            spec = ClusterSpec(profile=get_profile("sysnet"), seed=1)
            steps = [single_kind_steps(RequestKind.WRITE, samples)]
            cluster = Cluster(spec, steps)
            cluster.run()
            return cluster.kernel.handles_created, cluster.kernel.events_processed

        handles_small, events_small = handles_per_event(50)
        handles_big, events_big = handles_per_event(400)
        extra_handles = handles_big - handles_small
        extra_events = events_big - events_small
        ratio = extra_handles / extra_events
        print(f"\nmarginal handles per event = {ratio:.3f}")
        # Deliveries (the bulk of events) must go through post_at; only
        # timers and per-request scheduling may allocate a handle. If they
        # went through schedule_at this ratio would sit near 1.0.
        assert ratio < 0.6


class TestImportBudget:
    def test_a_run_loads_only_the_code_it_executes(self):
        """A fresh interpreter builds and runs a 100-write cluster through
        the quick-tour names and the invariant layer: no package root pulls
        in its subtree, and numpy, scipy and asyncio stay unloaded until a
        report interval or a real socket needs them."""
        script = (
            "import sys\n"
            "import repro.cluster.harness, repro.chaos.invariants\n"
            "from repro import Cluster, ClusterSpec, sysnet\n"
            "from repro.client.workload import single_kind_steps\n"
            "from repro.types import RequestKind\n"
            "steps = [single_kind_steps(RequestKind.WRITE, 100)]\n"
            "cluster = Cluster(ClusterSpec(profile=sysnet(), seed=1), steps).run()\n"
            "assert len(cluster.clients[0].rrts()) == 100\n"
            "print(len(sys.modules), *sorted(sys.modules))\n"
            "from repro.util.stats import summarize\n"
            "summarize([1.0]), summarize([2.0, 2.0])\n"
            "print('scipy' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(pathlib.Path(__file__).parents[2] / "src")},
        )
        assert done.returncode == 0, done.stderr
        run_line, scipy_line = done.stdout.splitlines()
        count, *loaded = run_line.split()
        print(f"\nmodules loaded by a 100-write run = {count}")
        forbidden = {
            "numpy", "scipy", "asyncio", "repro.lint", "repro.experiments",
            "repro.parallel", "repro.analysis", "repro.chaos.runner", "repro.chaos.shrink",
            "repro.obs.chrome", "repro.obs.ledger", "repro.obs.report", "repro.obs.timeline",
            "repro.transport.tcp",
        }
        assert sorted(forbidden.intersection(loaded)) == []
        assert scipy_line == "False"  # one sample, or no variance: no t quantile

    def test_importing_the_tcp_runtime_loads_no_network_stack(self):
        """The suite imports ``TcpRuntime`` for its one TCP workload; a
        simulated run in the same interpreter must still load no network
        stack — the runtime imports ``selectors`` and ``socket`` in
        ``start()``. A started runtime loads those two and never asyncio
        (nor, through it, ssl/OpenSSL or ``concurrent.futures``)."""
        script = (
            "import sys, threading\n"
            "from repro.transport.tcp import TcpRuntime\n"
            "from repro import Cluster, ClusterSpec, sysnet\n"
            "from repro.client.workload import single_kind_steps\n"
            "from repro.sim.process import Process\n"
            "from repro.types import RequestKind\n"
            "steps = [single_kind_steps(RequestKind.WRITE, 100)]\n"
            "cluster = Cluster(ClusterSpec(profile=sysnet(), seed=1), steps).run()\n"
            "assert len(cluster.clients[0].rrts()) == 100\n"
            "print(*sorted(sys.modules))\n"
            "runtime = TcpRuntime()\n"
            "runtime.add(Process('p'))\n"
            "runtime.start()\n"
            "port = runtime._ports['p']\n"
            "runtime.shutdown()\n"
            "threads = [t for t in threading.enumerate() if t.name == 'repro-tcp-runtime']\n"
            "print(port > 0, threads == [])\n"
            "print(*sorted(sys.modules))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(pathlib.Path(__file__).parents[2] / "src")},
        )
        assert done.returncode == 0, done.stderr
        run_line, started_line, started_modules = done.stdout.splitlines()
        network = {"asyncio", "ssl", "_ssl", "selectors", "socket", "concurrent.futures"}
        assert sorted(network.intersection(run_line.split())) == []
        # Positive control: a started runtime binds, leaves no thread, and
        # loads exactly the plain-socket part of the stack.
        assert started_line == "True True"
        assert sorted(network.intersection(started_modules.split())) == ["selectors", "socket"]
