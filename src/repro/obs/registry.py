"""The metrics registry: counters and fixed-bucket histograms.

Pure Python and allocation-light: instruments are plain ``__slots__``
objects created once and mutated in place, and every lookup is a single
dict access. When metrics are disabled the registry is replaced by
:data:`NULL_REGISTRY`, whose instruments are shared no-ops — an
instrumentation point in a hot path then costs one dict hit and one
no-op method call, and records nothing.

Instrument names are flat dotted strings; the reporting layer relies on
two conventions:

* global message accounting: ``msg.send.<Type>``, ``msg.send_bytes.<Type>``,
  ``msg.deliver.<Type>``, ``msg.drop.<Type>``;
* per-process instruments: ``proc.<pid>.<rest>`` — obtained via
  :meth:`MetricsRegistry.scope`, which prefixes names so protocol code
  never string-formats pids itself.

Nothing in this module reads clocks or RNGs: recording a metric can never
perturb a simulation schedule (the determinism regression test in
``tests/integration/test_obs_determinism.py`` holds the subsystem to that).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Mapping, Sequence

#: Default latency buckets, seconds: ~geometric 10µs .. 10s (the paper's
#: measurements span 0.18ms LAN RRTs to ~100ms WAN transactions).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (1.0, 2.0, 5.0)
) + (10.0,)


class Counter:
    """A monotonically increasing count (messages, bytes, aborts...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.value}>"


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything above the last edge. Observations
    are O(log buckets) (a bisect) and allocate nothing.
    """

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``).

        The estimate interpolates linearly within the bucket containing the
        target rank, clamped to the observed min/max — so it is always
        within one bucket width of the true sample quantile as long as the
        samples fall inside the finite buckets.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for idx, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count > 0:
                lo = self.bounds[idx - 1] if idx > 0 else min(self.minimum, self.bounds[0])
                hi = self.bounds[idx] if idx < len(self.bounds) else self.maximum
                lo = max(lo, self.minimum)
                hi = min(hi, self.maximum)
                if hi <= lo:
                    return lo
                # Position of the target rank inside this bucket.
                within = (target - (cumulative - bucket_count)) / bucket_count
                return lo + (hi - lo) * min(1.0, max(0.0, within))
        return self.maximum  # pragma: no cover - cumulative always reaches count

    def snapshot(self) -> dict[str, object]:
        """A JSON-serializable dump (see :mod:`repro.obs.timeline`)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, object]) -> "Histogram":
        hist = cls(snap["bounds"])  # type: ignore[arg-type]
        hist.counts = list(snap["counts"])  # type: ignore[arg-type]
        hist.count = int(snap["count"])  # type: ignore[arg-type]
        hist.total = float(snap["total"])  # type: ignore[arg-type]
        raw_min, raw_max = snap["min"], snap["max"]
        hist.minimum = float("inf") if raw_min is None else float(raw_min)
        hist.maximum = float("-inf") if raw_max is None else float(raw_max)
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram n={self.count} mean={self.mean:.6g}>"


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class Scope:
    """A registry view that prefixes every instrument name with ``proc.<pid>``
    (or any other prefix) — protocol code records against its scope and
    stays ignorant of which process it is.

    A scope remembers the instrument behind each short name, so a recording
    site pays one dict hit, not an f-string plus the registry's lookup.
    Registries never drop or replace an instrument, so the memo cannot go
    stale."""

    __slots__ = ("enabled", "_registry", "_prefix", "_counters", "_histograms")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        #: Whether recording does anything (fixed per registry class).
        self.enabled = registry.enabled
        self._registry = registry
        self._prefix = prefix
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self._registry.counter(
                f"{self._prefix}.{name}"
            )
        return counter

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = self._registry.histogram(
                f"{self._prefix}.{name}", bounds
            )
        return hist


class MetricsRegistry:
    """Owns every instrument of one run. Instruments are created on first
    use and cached by name; asking twice returns the same object."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------ instruments
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(bounds)
        return hist

    def scope(self, pid: str) -> Scope:
        return Scope(self, f"proc.{pid}")

    # --------------------------------------------------------------- queries
    def counters(self, prefix: str = "") -> dict[str, int]:
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def histograms(self, prefix: str = "") -> dict[str, Histogram]:
        return {
            name: h
            for name, h in sorted(self._histograms.items())
            if name.startswith(prefix)
        }

    def counter_value(self, name: str) -> int:
        """The counter's value, 0 if it never incremented (never creates)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def __iter__(self) -> Iterator[str]:
        yield from self._counters
        yield from self._histograms


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op, scoping
    returns the same null scope, and nothing is ever stored."""

    enabled = False

    _COUNTER = _NullCounter()
    _HISTOGRAM = _NullHistogram()

    def __init__(self) -> None:
        super().__init__()
        self._scope = Scope(self, "null")

    def counter(self, name: str) -> Counter:
        return self._COUNTER

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._HISTOGRAM

    def scope(self, pid: str) -> Scope:
        return self._scope


#: Shared disabled registry — the default wherever metrics are optional.
NULL_REGISTRY = NullRegistry()
