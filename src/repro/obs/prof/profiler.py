"""The deterministic sim-profiler: folded-stack attribution of simulated CPU.

The profiler's one currency is **sim CPU**: the virtual-time CPU occupancy
the :class:`repro.sim.cpu` model books per message (``send.<Type>.<peer>``
and ``recv.<Type>.<peer>`` frames), ``execute_time`` per modeled execution
(``execute``) and the modeled device time per fsync (``fsync``). These
values derive only from simulation state, so they are identical on every
run of the same seed. Host cost is measured elsewhere: by the benchmark
suite's cProfile layer shares (``python3 -m benchmarks.suite --trace 1``)
and by ``benchmarks/opcount.py``.

The profiler follows the same passivity contract as the metrics registry
and the tracer: it only *reads* cost constants and counters, never touches
an RNG or a schedule, so a profiled run is byte-identical to a bare one
(tests/integration/test_profiler.py pins this for all three protocols).
When profiling is off every hook is a no-op on the shared
:data:`NULL_PROFILER` and the kernel never samples — zero overhead,
checked exactly by the perf tier.

Frame paths form a tree interned as :class:`_Node` objects; the accounting
sites resolve their :class:`FrameStat` once and cache it, so the hot path
is one dict hit plus one ``add_cpu``.
"""

from __future__ import annotations

__all__ = [
    "FrameStat",
    "NULL_PROFILER",
    "NullProfiler",
    "SimProfiler",
]


class FrameStat:
    """Totals for one frame path."""

    __slots__ = ("calls", "sim_cpu")

    def __init__(self) -> None:
        self.calls = 0
        #: Simulated CPU seconds attributed to this frame (deterministic).
        self.sim_cpu = 0.0

    def add_cpu(self, seconds: float) -> None:
        """Account one call worth ``seconds`` of simulated CPU."""
        self.calls += 1
        self.sim_cpu += seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FrameStat calls={self.calls} sim_cpu={self.sim_cpu:.6f}s>"


class _Node:
    """One interned frame-path node; children keyed by frame label."""

    __slots__ = ("label", "children", "stat")

    def __init__(self, label: str) -> None:
        self.label = label
        self.children: dict[str, _Node] = {}
        self.stat = FrameStat()


class SimProfiler:
    """Collects folded-stack samples; created per run by the harness.

    ``sample_interval`` is the virtual-time period of the counter track
    sampled by the kernel's loop.
    """

    enabled = True

    __slots__ = ("sample_interval", "next_sample", "actors", "samples", "_root")

    def __init__(self, sample_interval: float = 0.01) -> None:
        self.sample_interval = sample_interval
        #: Virtual time at/after which the next counter sample fires.
        self.next_sample = 0.0
        #: pid -> kind ("replica" | "client" | "other"); names the peer in
        #: the send/recv frame labels.
        self.actors: dict[str, str] = {}
        #: Counter-track rows ``(t, actor, name, value)``; values are
        #: simulation-derived only, so the track is deterministic.
        self.samples: list[tuple[float, str, str, float]] = []
        self._root = _Node("")

    # -------------------------------------------------------------- actors
    def register_actor(self, pid: object, kind: str) -> None:
        self.actors[str(pid)] = kind

    def actor_kind(self, pid: object) -> str:
        return self.actors.get(str(pid), "other")

    # ---------------------------------------------------------- accounting
    def stat(self, path: tuple[str, ...]) -> FrameStat:
        """Get-or-create the stat at an absolute frame path (sim-CPU hooks
        cache the returned object, so this is off every hot path)."""
        node = self._root
        for label in path:
            child = node.children.get(label)
            if child is None:
                child = node.children[label] = _Node(label)
            node = child
        return node.stat

    def frames(self) -> dict[tuple[str, ...], FrameStat]:
        """All non-empty frame paths, sorted, mapped to their stats."""
        out: dict[tuple[str, ...], FrameStat] = {}

        def walk(node: _Node, prefix: tuple[str, ...]) -> None:
            for label in sorted(node.children):
                child = node.children[label]
                path = prefix + (label,)
                stat = child.stat
                if stat.calls or stat.sim_cpu:
                    out[path] = stat
                walk(child, path)

        walk(self._root, ())
        return out

    # ------------------------------------------------------------ sampling
    def _actor_totals(self) -> dict[str, float]:
        """Cumulative sim CPU per registered actor (subtree sums)."""
        totals = dict.fromkeys(self.actors, 0.0)

        def subtree(node: _Node) -> float:
            total = node.stat.sim_cpu
            for child in node.children.values():
                total += subtree(child)
            return total

        def walk(node: _Node) -> None:
            for label, child in node.children.items():
                if label in totals:
                    totals[label] += subtree(child)
                else:
                    walk(child)

        walk(self._root)
        return totals

    def sample(self, now: float, events: int, heap: int) -> None:
        """Record one deterministic counter sample at virtual time ``now``.

        Called by the kernel's loop whenever ``now`` crosses
        :attr:`next_sample`. Only simulation-derived values are sampled, so
        the counter tracks are reproducible run to run.
        """
        samples = self.samples
        totals = self._actor_totals()
        for actor in sorted(totals):
            samples.append((now, actor, "sim_cpu_ms", totals[actor] * 1e3))
        samples.append((now, "kernel", "events_processed", float(events)))
        samples.append((now, "kernel", "heap_size", float(heap)))
        self.next_sample = now + self.sample_interval

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProfiler frames={len(self.frames())} actors={len(self.actors)}>"


class NullProfiler:
    """No-op stand-in: every hook does nothing, ``enabled`` is False.

    Call sites branch on ``profiler.enabled`` so the disabled cost is one
    attribute load; the methods exist so code that *doesn't* branch (cold
    paths, tests) still works.
    """

    enabled = False

    __slots__ = ()

    #: Shared sink so ``stat(...)`` callers on a disabled profiler can
    #: still ``add_cpu`` harmlessly.
    _SINK = FrameStat()

    next_sample = float("inf")
    actors: dict[str, str] = {}
    samples: list[tuple[float, str, str, float]] = []

    def register_actor(self, pid: object, kind: str) -> None:
        pass

    def actor_kind(self, pid: object) -> str:
        return "other"

    def stat(self, path: tuple[str, ...]) -> FrameStat:
        return self._SINK

    def frames(self) -> dict[tuple[str, ...], FrameStat]:
        return {}

    def sample(self, now: float, events: int, heap: int) -> None:
        pass


#: The shared disabled profiler (the default everywhere).
NULL_PROFILER = NullProfiler()
