"""Model parameters, rates, and likelihood for the discrete Hawkes process.

The rate of process ``k`` in bin ``t`` is

    lambda[t, k] = lambda0[k]
                 + sum_{k'} sum_{d=1}^{D} s[t-d, k'] * W[k', k] * G[k', k, d]

where ``s`` is the count matrix, ``W[k', k]`` the expected number of
child events on ``k`` per event on ``k'``, and ``G[k', k]`` a PMF over
lags ``1..D`` (Section 5.1).

Rate evaluation runs on the flat segment kernels of :mod:`.kernels`,
and the log-likelihood is the one-cascade call of the batched
likelihood (:meth:`~.batched.BatchedParentStructure.log_likelihood`);
both accumulate in the event order of a reference loop, so values are
bit-identical to a naive per-event implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..events import DiscreteEvents
from . import kernels
from .basis import DirichletLagBasis

_PMF_TOL = 1e-6


@dataclass(frozen=True)
class HawkesParams:
    """Parameters ``(lambda0, W, G)`` of a K-process discrete Hawkes model.

    Attributes
    ----------
    background:
        ``(K,)`` background rates per bin, ``lambda0 >= 0``.
    weights:
        ``(K, K)`` interaction weights; ``weights[i, j]`` is the expected
        number of events induced on process ``j`` by one event on
        process ``i``.
    impulse:
        ``(K, K, D)`` lag PMFs; ``impulse[i, j]`` sums to 1 over the lag
        axis (lag ``d`` bins corresponds to index ``d - 1``).
    """

    background: np.ndarray
    weights: np.ndarray
    impulse: np.ndarray

    def __post_init__(self) -> None:
        k = self.background.shape[0]
        if self.weights.shape != (k, k):
            raise ValueError(f"weights must be ({k}, {k})")
        if self.impulse.ndim != 3 or self.impulse.shape[:2] != (k, k):
            raise ValueError(f"impulse must be ({k}, {k}, D)")
        if np.any(self.background < 0) or np.any(self.weights < 0):
            raise ValueError("rates and weights must be non-negative")
        self._check_impulse()

    def _check_impulse(self) -> None:
        """Raise unless every ``impulse[i, j]`` is a PMF over lags."""
        if np.any(self.impulse < -_PMF_TOL):
            raise ValueError("impulse PMFs must be non-negative")
        sums = self.impulse.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > 1e-4):
            raise ValueError("impulse PMFs must sum to 1 over lags")

    @property
    def n_processes(self) -> int:
        return self.background.shape[0]

    @property
    def max_lag(self) -> int:
        return self.impulse.shape[2]

    def spectral_radius(self) -> float:
        """Spectral radius of ``W``; < 1 means the process is stable.

        In the branching view each event spawns ``W[i, :]`` children in
        expectation, so the cascade dies out iff the radius is below 1.
        """
        return float(np.max(np.abs(np.linalg.eigvals(self.weights))))

    def branching_kernel(self) -> np.ndarray:
        """``(K, K, D)`` expected child counts per lag: ``W[:, :, None] * G``."""
        return self.weights[:, :, None] * self.impulse


def expected_rate(params: HawkesParams, events: DiscreteEvents,
                  query_bins: np.ndarray | None = None) -> np.ndarray:
    """Rates ``lambda[t, k]`` at the requested bins.

    Returns an ``(n_query, K)`` array.  ``query_bins`` defaults to the
    occupied bins of ``events`` (deduplicated, sorted).  Computation is
    sparse in the events, so month-long URL matrices stay cheap.
    """
    if events.n_processes != params.n_processes:
        raise ValueError("event matrix and params disagree on K")
    query_bins = (np.unique(events.bins) if query_bins is None
                  else np.asarray(query_bins, dtype=np.int64))
    rates = np.tile(params.background, (len(query_bins), 1))
    if len(events):
        kernels.QueryStructure(events, query_bins, params.max_lag).add_rates(
            rates, params.weights, params.impulse)
    return rates


def discrete_log_likelihood(params: HawkesParams,
                            events: DiscreteEvents) -> float:
    """Exact Poisson log-likelihood of ``events`` under ``params``.

    ``sum_{t,k} [ s log(lambda) - lambda - log(s!) ]``; bins with zero
    counts contribute only their ``-lambda`` term, captured by the exact
    rate integral.  The one-cascade call of
    :meth:`~.batched.BatchedParentStructure.log_likelihood`: every lag
    is its own bucket (:func:`~.basis.DirichletLagBasis`), so the
    impulse is the bucket PMF, dividing it by bucket sizes of 1 is
    exact, and the structure's lag-CDF pass is the per-lag cumsum.
    """
    # batched imports this module.
    from .batched import BatchedParentStructure, PackedCascades
    if events.n_processes != params.n_processes:
        raise ValueError("event matrix and params disagree on K")
    structure = BatchedParentStructure(
        PackedCascades([events], params.max_lag),
        DirichletLagBasis(params.max_lag))
    buckets = params.impulse[None]
    return float(structure.log_likelihood(
        params.background[None], params.weights[None], buckets,
        structure.lag_cdf_rows(buckets))[0])
