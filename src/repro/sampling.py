"""Categorical draws from fixed distributions, set up once.

``random.Random.choices(population, weights=w)`` accumulates ``w`` on
every call, and ``numpy.random.Generator.choice(n, p=p)`` checks and
accumulates ``p`` on every call.  World synthesis draws from a handful
of fixed distributions tens of thousands of times, so the classes here
do that set-up once and then run exactly the draw the library call
runs: the same generator outputs, consumed in the same order, mapped
to the same index.  A world built with them is bit-identical to one
built with the library calls.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from itertools import accumulate
from typing import Any, Sequence

import numpy as np

#: ``Generator.choice``'s tolerance on ``sum(p) - 1`` for float64 ``p``.
_P_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


class WeightedChoice:
    """``rng.choices(population, weights=weights, k=1)[0]``, accumulated once.

    The draw is the body of :meth:`random.Random.choices`: one
    ``rng.random()``, scaled by the total weight and bisected into the
    cumulative weights.
    """

    __slots__ = ("population", "cum_weights", "total", "_hi")

    def __init__(self, population: Sequence[Any],
                 weights: Sequence[float]) -> None:
        cum_weights = list(accumulate(weights))
        if len(cum_weights) != len(population):
            raise ValueError(
                "The number of weights does not match the population")
        total = cum_weights[-1] + 0.0
        if total <= 0.0:
            raise ValueError("Total of weights must be greater than zero")
        if not math.isfinite(total):
            raise ValueError("Total of weights must be finite")
        self.population = population
        self.cum_weights = cum_weights
        self.total = total
        self._hi = len(population) - 1

    def draw(self, rng: random.Random) -> Any:
        return self.population[
            bisect(self.cum_weights, rng.random() * self.total, 0, self._hi)]


class CategoricalCDF:
    """``rng.choice(len(p), p=p)``, with ``p`` checked and accumulated once.

    The constructor runs the checks ``Generator.choice`` runs on every
    call: ``p`` one-dimensional, non-empty, finite, non-negative, and
    summing to 1 within ``sqrt(eps)`` of its float type.  The sum is
    taken exactly (``math.fsum``) where ``choice`` uses a Kahan sum, so
    the two can disagree only on a ``p`` whose sum lies within rounding
    of the tolerance.  A draw is what ``choice`` does after its checks:
    ``cdf.searchsorted(rng.random(size), side="right")``.
    """

    __slots__ = ("cdf",)

    def __init__(self, p) -> None:
        atol = _P_SUM_ATOL
        if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
            atol = max(atol, math.sqrt(np.finfo(p.dtype).eps))
        p = np.ascontiguousarray(p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("'p' must be 1-dimensional")
        if not p.size:
            raise ValueError("'p' must not be empty")
        if not np.all(np.isfinite(p)):
            raise ValueError("Probabilities are not finite")
        if np.any(p < 0):
            raise ValueError("Probabilities are not non-negative")
        if abs(math.fsum(p.tolist()) - 1.0) > atol:
            raise ValueError("Probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf

    def draw(self, rng: np.random.Generator) -> int:
        """One index, as ``int(rng.choice(len(p), p=p))``."""
        return int(self.cdf.searchsorted(rng.random(), side="right"))

    def draws(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` indices, as ``rng.choice(len(p), size=size, p=p)``."""
        return self.cdf.searchsorted(rng.random(size), side="right")
