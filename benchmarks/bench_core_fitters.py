"""Microbenchmarks of the statistical core.

Times the pieces every experiment pays for: branching simulation,
a single Gibbs fit and log-likelihood evaluation, on
a standardized 8-process synthetic cascade sized like a busy corpus URL.

Set ``BENCH_SMOKE=1`` to shrink the case (fewer bins and sweeps) for a
fast CI smoke pass.
"""

import os

import numpy as np
import pytest

from repro.core.hawkes import (
    HawkesParams,
    fit_gibbs,
    simulate_branching,
)
from repro.core.hawkes.basis import LogBinnedLagBasis
from repro.core.hawkes.model import discrete_log_likelihood

K = 8
MAX_LAG = 720

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
N_BINS = 2_000 if SMOKE else 10_000
GIBBS_SWEEPS, GIBBS_BURN = (10, 3) if SMOKE else (40, 15)


@pytest.fixture(scope="module")
def standard_case():
    pmf = np.exp(-np.arange(1, MAX_LAG + 1) / 90.0)
    pmf /= pmf.sum()
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.03, 0.08, (K, K))
    np.fill_diagonal(weights, rng.uniform(0.06, 0.12, K))
    params = HawkesParams(
        background=rng.uniform(0.0005, 0.003, K),
        weights=weights,
        impulse=np.tile(pmf, (K, K, 1)),
    )
    events = simulate_branching(params, N_BINS, np.random.default_rng(1))
    return params, events


def test_bench_simulate_branching(benchmark, standard_case):
    params, _ = standard_case
    result = benchmark(simulate_branching, params, N_BINS,
                       np.random.default_rng(2))
    assert result.total_events > 0


def test_bench_log_likelihood(benchmark, standard_case):
    params, events = standard_case
    value = benchmark(discrete_log_likelihood, params, events)
    assert np.isfinite(value)


def test_bench_fit_gibbs(benchmark, standard_case):
    _, events = standard_case
    basis = LogBinnedLagBasis(MAX_LAG)

    def run():
        return fit_gibbs(events, MAX_LAG, basis=basis,
                         n_iterations=GIBBS_SWEEPS, burn_in=GIBBS_BURN,
                         rng=np.random.default_rng(3),
                         keep_samples=False)

    result = benchmark(run)
    assert result.params.n_processes == K
