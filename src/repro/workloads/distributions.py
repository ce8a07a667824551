"""Seeded random distributions for workload generation.

A thin wrapper over ``numpy.random.Generator`` that keeps every experiment
deterministic (seed in, same workload out) and centralizes the distribution
shapes used by the SWIM-derived and synthetic generators.

Each number costs one bound ``Generator`` call and nothing more: the
``Generator`` methods' per-call argument handling (``choice`` re-validating
``p``, ``np.clip`` dispatching on a Python float) costs more than the random
numbers.  The numbers and their order are those of the ``Generator`` methods
each docstring names; ``tests/workloads/test_generator_identity.py`` pins them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import WorkloadError


class Rng:
    """Deterministic random source for one workload."""

    def __init__(self, seed: int) -> None:
        self._gen = np.random.default_rng(seed)
        self._random = self._gen.random
        self._integers = self._gen.integers
        #: ``Generator.lognormal(mu, sigma)``: takes the underlying normal's
        #: mean ``mu = log(median)``, not the median.
        self.lognormal = self._gen.lognormal

    def uniform(self, lo: float, hi: float) -> float:
        """``Generator.uniform(lo, hi)``: numpy's ``random_uniform``."""
        return lo + (hi - lo) * self._random()

    def categorical(self, cdf: list[float]) -> int:
        """``Generator.choice(len(p), p=p)`` for ``cdf = cumulative(p)``."""
        return bisect_right(cdf, self._random())

    def gamma_gaps(self, n: int, mean: float, cv: float) -> list[float]:
        """``n`` arrival gaps with a chosen coefficient of variation.

        ``cv = 1`` is exponential (Poisson arrivals); ``cv > 1`` is bursty
        (the companion TR sweeps inter-arrival burstiness).  Implemented as
        a Gamma distribution with shape ``1/cv**2`` and matching mean.  One
        vector call draws what ``n`` scalar ``gamma`` calls would: nothing
        else draws in between.
        """
        if cv <= 0:
            raise WorkloadError("cv must be positive")
        shape = 1.0 / (cv * cv)
        return self._gen.gamma(shape, mean / shape, size=n).tolist()

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return int(self._integers(lo, hi + 1))


def cumulative(probabilities: list[float]) -> list[float]:
    """The table ``Generator.choice`` searches: ``cumsum(p) / sum(p)``."""
    cdf = np.cumsum(probabilities, dtype=np.float64)
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclass(frozen=True)
class BoundedLogNormal:
    """Lognormal clipped to [lo, hi] — heavy-tailed but sim-friendly.

    SWIM's published MapReduce characterizations (Facebook/Yahoo production
    traces) show strongly skewed job sizes and durations; we reproduce the
    skew with clipped lognormals.
    """

    median: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.median <= self.hi):
            raise WorkloadError(
                f"median {self.median} outside bounds [{self.lo}, {self.hi}]")
        if self.sigma < 0:
            raise WorkloadError("sigma must be nonnegative")

    @cached_property
    def mu(self) -> float:
        return float(np.log(self.median))

    def sample(self, rng: Rng) -> float:
        x = rng.lognormal(self.mu, self.sigma)
        if x < self.lo:
            return float(self.lo)
        return float(self.hi) if x > self.hi else x


@dataclass(frozen=True)
class UniformInt:
    """Uniform integer distribution, inclusive of both bounds."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi or self.lo < 1:
            raise WorkloadError(f"bad integer range [{self.lo}, {self.hi}]")

    def sample(self, rng: Rng) -> int:
        return rng.integer(self.lo, self.hi)


@dataclass(frozen=True)
class UniformFloat:
    """Uniform float distribution over [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise WorkloadError(f"bad range [{self.lo}, {self.hi}]")

    def sample(self, rng: Rng) -> float:
        return rng.uniform(self.lo, self.hi)
