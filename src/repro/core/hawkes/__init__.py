"""Discrete-time multivariate Hawkes processes (Section 5.1).

The model follows Linderman & Adams [20, 21] as used by the paper: ``K``
point processes with background rates ``lambda_0``, an interaction
weight matrix ``W`` (``W[i, j]`` is the expected number of child events
on process ``j`` caused by one event on process ``i``), and per-pair lag
probability mass functions ``G`` over lags ``1..D`` bins.

Submodules
----------
``model``       parameters, rate computation, log-likelihood (the
                one-cascade call of ``batched``'s likelihood)
``basis``       lag-PMF parameterizations (full Dirichlet, log-binned)
``kernels``     flat segment-wise array kernels shared by all of the above
``simulation``  exact branching sampler and a stepwise cross-check sampler
``inference``   priors and the per-URL fitters (Gibbs sampler, EM), each
                the one-cascade call of ``batched``
``batched``     EM, Gibbs and the log-likelihood over packed corpora (one
                array program per batch, the same bits as fitting each
                URL alone)
"""

from .basis import DirichletLagBasis, LagBasis, LogBinnedLagBasis
from .batched import (
    BatchedFitResult,
    PackedCascades,
    fit_em_batched,
    fit_gibbs_batched,
)
from .model import HawkesParams, discrete_log_likelihood, expected_rate
from .simulation import simulate_branching, simulate_stepwise
from .inference import FitResult, fit_em, fit_gibbs

__all__ = [
    "BatchedFitResult",
    "PackedCascades",
    "fit_em_batched",
    "fit_gibbs_batched",
    "DirichletLagBasis",
    "LagBasis",
    "LogBinnedLagBasis",
    "HawkesParams",
    "discrete_log_likelihood",
    "expected_rate",
    "simulate_branching",
    "simulate_stepwise",
    "FitResult",
    "fit_em",
    "fit_gibbs",
]
