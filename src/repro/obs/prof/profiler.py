"""The deterministic sim-profiler: folded-stack attribution of sim CPU and
host wall time.

Two currencies are tracked per frame path:

* **sim CPU** — the virtual-time CPU occupancy the :class:`repro.sim.cpu`
  model books per message (and ``execute_time`` per modeled execution).
  These values derive only from simulation state, so they are identical on
  every run of the same seed.
* **host time** — real ``perf_counter_ns`` time spent inside kernel event
  callbacks and protocol handlers. This is where the *reproduction's own*
  hot spots show up (the thing ``tests/perf`` floors guard).

The profiler follows the same passivity contract as the metrics registry
and the tracer: it only *reads* clocks and counters, never touches an RNG
or a schedule, so a profiled run is byte-identical to a bare one
(tests/integration/test_profiler.py pins this for all three protocols).
When profiling is off every hook is a no-op on the shared
:data:`NULL_PROFILER` and the kernel runs its untouched bare loop — zero
overhead, checked exactly by the perf tier.

Frame paths form a tree interned as :class:`_Node` objects, so the hot
path (``enter``/``exit``) is one dict hit plus one clock read per edge —
no tuple allocation per event. Host clocks live *here*, in the obs layer,
on purpose: deterministic layers (sim/core/...) may only reach them
through the injected :attr:`SimProfiler.host_clock` attribute (see
DET001 in ``repro.lint``).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator

__all__ = [
    "FrameStat",
    "NULL_PROFILER",
    "NullProfiler",
    "SimProfiler",
]


class FrameStat:
    """Exclusive (self-time) totals for one frame path."""

    __slots__ = ("calls", "sim_cpu", "host_ns")

    def __init__(self) -> None:
        self.calls = 0
        #: Simulated CPU seconds attributed to this frame (deterministic).
        self.sim_cpu = 0.0
        #: Host nanoseconds of self time (excludes child frames).
        self.host_ns = 0

    def add_cpu(self, seconds: float) -> None:
        """Account one call worth ``seconds`` of simulated CPU."""
        self.calls += 1
        self.sim_cpu += seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FrameStat calls={self.calls} sim_cpu={self.sim_cpu:.6f}s "
            f"host={self.host_ns}ns>"
        )


class _Node:
    """One interned frame-path node; children keyed by frame label."""

    __slots__ = ("label", "children", "stat")

    def __init__(self, label: str) -> None:
        self.label = label
        self.children: dict[str, _Node] = {}
        self.stat = FrameStat()


class SimProfiler:
    """Collects folded-stack samples; created per run by the harness.

    ``clock`` is the virtual clock (``lambda: kernel.now``); ``host_clock``
    is the host-time source (injected so deterministic layers never name an
    ambient clock themselves). ``sample_interval`` is the virtual-time
    period of the counter track sampled by the kernel's profiled loop.
    """

    enabled = True

    __slots__ = (
        "clock",
        "host_clock",
        "sample_interval",
        "next_sample",
        "actors",
        "samples",
        "_root",
        "_stack",
    )

    def __init__(
        self,
        clock: Callable[[], float],
        host_clock: Callable[[], int] = time.perf_counter_ns,
        sample_interval: float = 0.01,
    ) -> None:
        self.clock = clock
        self.host_clock = host_clock
        self.sample_interval = sample_interval
        #: Virtual time at/after which the next counter sample fires.
        self.next_sample = 0.0
        #: pid -> kind ("replica" | "client" | "other"); drives the E/m/M
        #: classification of send/recv frames.
        self.actors: dict[str, str] = {}
        #: Counter-track rows ``(t, actor, name, value)``; values are
        #: simulation-derived only, so the track is deterministic.
        self.samples: list[tuple[float, str, str, float]] = []
        self._root = _Node("")
        #: Live scope stack: ``[node, start_ns, child_ns]`` per open frame.
        self._stack: list[list] = []

    # -------------------------------------------------------------- actors
    def register_actor(self, pid: object, kind: str) -> None:
        self.actors[str(pid)] = kind

    def actor_kind(self, pid: object) -> str:
        return self.actors.get(str(pid), "other")

    # ------------------------------------------------------------- scoping
    def enter(self, label: str) -> None:
        """Open a host-time scope; ``label`` is a literal (docs/performance.md)."""
        # _child() inlined: this runs once per kernel event and once per
        # protocol scope, and the call overhead is measurable (perf tier
        # bounds the profiled/bare ratio).
        stack = self._stack
        parent = stack[-1][0] if stack else self._root
        node = parent.children.get(label)
        if node is None:
            node = parent.children[label] = _Node(label)
        stack.append([node, self.host_clock(), 0])

    def exit(self) -> None:
        """Close the innermost scope, attributing exclusive self time."""
        node, start, child_ns = self._stack.pop()
        elapsed = self.host_clock() - start
        stat = node.stat
        stat.calls += 1
        stat.host_ns += elapsed - child_ns
        if self._stack:
            self._stack[-1][2] += elapsed

    # The kernel's event loop opens one frame per dispatched event with a
    # dynamic label (the callback's qualname) — same mechanics as
    # enter/exit, different names so the literal-label convention reads as
    # applying only to protocol-level scopes.
    enter_event = enter
    exit_event = exit

    def enter_handler(self, actor: str, frame: str) -> None:
        """Open the two-frame ``actor -> handler`` scope with one clock read."""
        now = self.host_clock()
        stack = self._stack
        parent = stack[-1][0] if stack else self._root
        actor_node = parent.children.get(actor)
        if actor_node is None:
            actor_node = parent.children[actor] = _Node(actor)
        frame_node = actor_node.children.get(frame)
        if frame_node is None:
            frame_node = actor_node.children[frame] = _Node(frame)
        stack.append([actor_node, now, 0])
        stack.append([frame_node, now, 0])

    def exit_handler(self) -> None:
        """Close a handler scope; the actor frame keeps zero self time."""
        now = self.host_clock()
        stack = self._stack
        node, start, child_ns = stack.pop()
        elapsed = now - start
        stat = node.stat
        stat.calls += 1
        stat.host_ns += elapsed - child_ns
        stack.pop()  # the actor frame: all of its time belongs to children
        if stack:
            stack[-1][2] += elapsed

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
                if stat.calls or stat.sim_cpu or stat.host_ns:
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

        Called by the kernel's profiled loop whenever ``now`` crosses
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

    host_clock = staticmethod(time.perf_counter_ns)
    sample_interval = 0.0
    next_sample = float("inf")
    actors: dict[str, str] = {}
    samples: list[tuple[float, str, str, float]] = []

    def register_actor(self, pid: object, kind: str) -> None:
        pass

    def actor_kind(self, pid: object) -> str:
        return "other"

    def enter(self, label: str) -> None:
        pass

    def exit(self) -> None:
        pass

    enter_event = enter
    exit_event = exit

    def enter_handler(self, actor: str, frame: str) -> None:
        pass

    def exit_handler(self) -> None:
        pass

    def stat(self, path: tuple[str, ...]) -> FrameStat:
        return self._SINK

    def frames(self) -> dict[tuple[str, ...], FrameStat]:
        return {}

    def sample(self, now: float, events: int, heap: int) -> None:
        pass

    def __iter__(self) -> Iterator:  # pragma: no cover - defensive
        return iter(())


#: The shared disabled profiler (the default everywhere).
NULL_PROFILER = NullProfiler()
