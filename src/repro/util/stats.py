"""Statistics helpers used by the evaluation harness.

The paper reports averages with **99% confidence intervals** (Student-t).
:func:`summarize` reproduces exactly that, plus percentiles that are handy
when inspecting tail latency.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Summary:
    """Summary statistics of a sample, in the units of the input."""

    n: int
    mean: float
    std: float
    ci99: float          #: half-width of the 99% confidence interval
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    @property
    def ci_lo(self) -> float:
        return self.mean - self.ci99

    @property
    def ci_hi(self) -> float:
        return self.mean + self.ci99

    def to_dict(self) -> dict[str, float]:
        """Every field, JSON-ready, so a merged sweep document can
        regenerate any table without re-running."""
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "ci99": self.ci99,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.6g} ±{self.ci99:.2g} (n={self.n})"


def confidence_interval(samples: Sequence[float], confidence: float = 0.99) -> float:
    """Half-width of the two-sided Student-t confidence interval of the mean.

    Returns 0.0 for samples of size < 2 (no variance estimate is possible);
    the paper's experiments always have hundreds of samples.
    """
    # numpy (~12 MB resident) and scipy (~0.7 s to import) are imported
    # here, not at module scope: only a report's 99% interval needs them —
    # a run, a chaos worker or ``repro --help`` never does.
    n = len(samples)
    if n < 2:
        return 0.0
    import numpy as np

    arr = np.asarray(samples, dtype=float)
    sem = arr.std(ddof=1) / np.sqrt(n)
    if sem == 0.0:
        return 0.0
    from scipy import stats as _scipy_stats

    t_crit = _scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)
    return float(t_crit * sem)


def summarize(samples: Sequence[float], confidence: float = 0.99) -> Summary:
    """Compute :class:`Summary` statistics for a non-empty sample."""
    if len(samples) == 0:
        raise ValueError("cannot summarize an empty sample")
    import numpy as np

    arr = np.asarray(samples, dtype=float)
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        ci99=confidence_interval(samples, confidence),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )
