"""One-way message latency models.

All latencies are in **seconds**. Models are sampled with an externally
provided :class:`random.Random` so the network owns determinism, and models
stay stateless/shareable.

The asynchronous-system assumption of the paper corresponds to latency
models with unbounded support (e.g. :class:`LogNormalLatency`): no upper
bound on delivery time, yet eventual delivery.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Sequence
from math import exp, log
from random import NV_MAGICCONST


class LatencyModel(abc.ABC):
    """A distribution of one-way link latencies."""

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one latency, in seconds. Must be >= 0."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected latency in seconds (used by the analytic model)."""


class ConstantLatency(LatencyModel):
    """A fixed one-way delay. The analytic-model workhorse."""

    __slots__ = ("_value",)

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency must be >= 0, got {value}")
        self._value = value

    def sample(self, rng: random.Random) -> float:
        return self._value

    @property
    def mean(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"ConstantLatency({self._value!r})"


class UniformLatency(LatencyModel):
    """Uniform on ``[lo, hi]``."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not 0 <= lo <= hi:
            raise ValueError(f"need 0 <= lo <= hi, got {lo}, {hi}")
        self._lo, self._hi = lo, hi

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self._lo, self._hi)

    @property
    def mean(self) -> float:
        return (self._lo + self._hi) / 2.0

    def __repr__(self) -> str:
        return f"UniformLatency({self._lo!r}, {self._hi!r})"


class LogNormalLatency(LatencyModel):
    """Log-normal latency parameterized by its *median* and shape ``sigma``.

    Log-normal is the standard model for wide-area RTT jitter: strictly
    positive, right-skewed, unbounded — exactly the asynchrony the paper
    assumes. ``sigma`` around 0.05 models a quiet LAN; 0.1–0.3 models
    PlanetLab paths.
    """

    __slots__ = ("_median", "_sigma", "_mu")

    def __init__(self, median: float, sigma: float = 0.1) -> None:
        if median <= 0:
            raise ValueError(f"median must be > 0, got {median}")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self._median = median
        self._sigma = sigma
        self._mu = log(median)

    def sample(self, rng: random.Random) -> float:
        sigma = self._sigma
        if sigma == 0.0:
            return self._median
        # ``rng.lognormvariate(mu, sigma)`` without its two Python frames —
        # one draw per simulated message. Same Kinderman-Monahan loop, same
        # ``random()`` draws, same float operations in the same order
        # (tests/property/test_latency_props.py holds it to that).
        draw = rng.random
        while True:
            u1 = draw()
            u2 = 1.0 - draw()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        return exp(self._mu + z * sigma)

    @property
    def median(self) -> float:
        return self._median

    @property
    def sigma(self) -> float:
        return self._sigma

    @property
    def mean(self) -> float:
        return self._median * exp(self._sigma**2 / 2.0)

    def __repr__(self) -> str:
        return f"LogNormalLatency(median={self._median!r}, sigma={self._sigma!r})"


class EmpiricalLatency(LatencyModel):
    """Resamples from a measured trace of latencies (bootstrap)."""

    __slots__ = ("_samples", "_mean")

    def __init__(self, samples: Sequence[float]) -> None:
        if not samples:
            raise ValueError("empirical latency needs at least one sample")
        if any(s < 0 for s in samples):
            raise ValueError("latency samples must be >= 0")
        self._samples = tuple(samples)
        self._mean = sum(samples) / len(samples)

    def sample(self, rng: random.Random) -> float:
        return rng.choice(self._samples)

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"EmpiricalLatency(n={len(self._samples)})"
