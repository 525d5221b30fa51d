"""Model parameters, rates, and likelihood for the discrete Hawkes process.

The rate of process ``k`` in bin ``t`` is

    lambda[t, k] = lambda0[k]
                 + sum_{k'} sum_{d=1}^{D} s[t-d, k'] * W[k', k] * G[k', k, d]

where ``s`` is the count matrix, ``W[k', k]`` the expected number of
child events on ``k`` per event on ``k'``, and ``G[k', k]`` a PMF over
lags ``1..D`` (Section 5.1).

Rate and likelihood evaluation run on the flat segment kernels of
:mod:`.kernels`; accumulation preserves the event-order floating-point
associativity of a reference loop, so values are bit-identical to a
naive per-event implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ..events import DiscreteEvents
from . import kernels

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
    sparse in the events, so month-long URL matrices stay cheap; the
    default-grid gather structure is cached on ``events``.
    """
    if events.n_processes != params.n_processes:
        raise ValueError("event matrix and params disagree on K")
    if query_bins is None:
        structure = kernels.get_query_structure(events, params.max_lag)
        n_query = structure.n_queries
    else:
        query_bins = np.asarray(query_bins, dtype=np.int64)
        structure = None
        n_query = len(query_bins)
    rates = np.tile(params.background, (n_query, 1))
    if not len(events):
        return rates
    if structure is None:
        structure = kernels.QueryStructure(events, query_bins,
                                           params.max_lag)
    structure.add_rates(rates, params.weights, params.impulse)
    return rates


def rate_integral(params: HawkesParams, events: DiscreteEvents) -> np.ndarray:
    """``sum_t lambda[t, k]`` for each process, computed exactly.

    Background contributes ``lambda0 * T``; each event at bin ``t'`` on
    process ``k'`` contributes ``W[k', k] * cdf_G(min(D, T - 1 - t'))``,
    i.e. its kernel mass truncated at the end of the observation window.
    """
    total = params.background * events.n_bins
    if not len(events):
        return total
    cdf = np.cumsum(params.impulse, axis=2)  # (K, K, D)
    return kernels.truncated_kernel_mass(events, params.weights, cdf,
                                         params.max_lag, init=total)


def discrete_log_likelihood(params: HawkesParams,
                            events: DiscreteEvents) -> float:
    """Exact Poisson log-likelihood of ``events`` under ``params``.

    ``sum_{t,k} [ s log(lambda) - lambda - log(s!) ]``; bins with zero
    counts contribute only their ``-lambda`` term, captured by the exact
    rate integral.
    """
    integral = float(rate_integral(params, events).sum())
    if not len(events):
        return -integral
    rates = expected_rate(params, events)
    rows = np.searchsorted(kernels.unique_bins(events), events.bins)
    lams = rates[rows, events.processes]
    if np.any(lams <= 0):
        return -np.inf
    counts = events.counts.astype(np.float64)
    terms = counts * np.log(lams) - gammaln(counts + 1)
    log_term = float(np.cumsum(terms)[-1])
    return log_term - integral
