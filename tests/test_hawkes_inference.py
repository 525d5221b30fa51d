"""Tests for Gibbs and EM inference, including parameter recovery."""

import numpy as np
import pytest

from repro.core.events import DiscreteEvents
from repro.core.hawkes.basis import DirichletLagBasis, LogBinnedLagBasis
from repro.core.hawkes.inference import Priors, fit_em, fit_gibbs
from repro.core.hawkes.model import HawkesParams
from repro.core.hawkes.simulation import simulate_branching

from parent_reference import ParentStructure


def make_true_params(k=2, max_lag=20, seed=0):
    rng = np.random.default_rng(seed)
    weights = np.array([[0.35, 0.15], [0.05, 0.30]])[:k, :k]
    pmf = np.exp(-np.arange(1, max_lag + 1) / 5.0)
    pmf /= pmf.sum()
    return HawkesParams(
        background=np.array([0.01, 0.006])[:k],
        weights=weights,
        impulse=np.tile(pmf, (k, k, 1)),
    )


@pytest.fixture(scope="module")
def simulated():
    params = make_true_params()
    rng = np.random.default_rng(99)
    events = simulate_branching(params, 40_000, rng)
    return params, events


class TestPriors:
    def test_defaults_positive(self):
        priors = Priors()
        assert priors.background_rate > 0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Priors(weight_rate=0.0)


class TestParentStructure:
    def test_candidates_within_window(self):
        events = DiscreteEvents.from_pairs(
            [(0, 0), (3, 0), (10, 1), (100, 0)], n_bins=200, n_processes=2)
        structure = ParentStructure(events, DirichletLagBasis(20))
        # entry 0 (bin 0) has no candidates
        assert len(structure.cand_src[0]) == 0
        # entry 1 (bin 3) sees only bin 0
        assert list(structure.cand_lag[1]) == [3]
        # entry 2 (bin 10) sees bins 0 and 3
        assert sorted(structure.cand_lag[2]) == [7, 10]
        # entry 3 (bin 100) sees nothing within 20 bins
        assert len(structure.cand_src[3]) == 0

    def test_exposure_truncation(self):
        events = DiscreteEvents.from_pairs(
            [(95, 0)], n_bins=100, n_processes=1)
        basis = DirichletLagBasis(10)
        structure = ParentStructure(events, basis)
        pmf = np.full((1, 1, 10), 0.1)
        # only lags 1..4 fit before the window ends
        assert structure.bucket_exposure(pmf)[0, 0] == pytest.approx(0.4)

    def test_exposure_counts_multiplicity(self):
        events = DiscreteEvents.from_pairs(
            [(0, 0), (0, 0)], n_bins=100, n_processes=1)
        basis = DirichletLagBasis(10)
        structure = ParentStructure(events, basis)
        pmf = np.full((1, 1, 10), 0.1)
        assert structure.bucket_exposure(pmf)[0, 0] == pytest.approx(2.0)


class TestGibbs:
    def test_recovers_background(self, simulated):
        params, events = simulated
        result = fit_gibbs(events, params.max_lag, n_iterations=80,
                           burn_in=30, rng=np.random.default_rng(1))
        assert np.allclose(result.background, params.background,
                           rtol=0.5, atol=0.004)

    def test_recovers_weights(self, simulated):
        params, events = simulated
        result = fit_gibbs(events, params.max_lag, n_iterations=80,
                           burn_in=30, rng=np.random.default_rng(2))
        # diagonal (strong) weights within 40%
        for k in range(2):
            assert result.weights[k, k] == pytest.approx(
                params.weights[k, k], rel=0.4)
        # weak cross weight estimated below the strong ones
        assert result.weights[1, 0] < result.weights[0, 0]

    def test_weight_samples_shape(self, simulated):
        _, events = simulated
        result = fit_gibbs(events, 20, n_iterations=30, burn_in=10,
                           rng=np.random.default_rng(3))
        assert result.weight_samples.shape == (20, 2, 2)

    def test_keep_samples_false(self, simulated):
        _, events = simulated
        result = fit_gibbs(events, 20, n_iterations=20, burn_in=5,
                           rng=np.random.default_rng(4),
                           keep_samples=False)
        assert result.weight_samples.size == 0

    def test_burn_in_validation(self, simulated):
        _, events = simulated
        with pytest.raises(ValueError):
            fit_gibbs(events, 20, n_iterations=10, burn_in=10)

    def test_mismatched_basis_rejected(self, simulated):
        _, events = simulated
        with pytest.raises(ValueError):
            fit_gibbs(events, 20, basis=LogBinnedLagBasis(30))

    def test_empty_events_returns_prior(self):
        events = DiscreteEvents.from_pairs([], n_bins=1000, n_processes=2)
        result = fit_gibbs(events, 20, n_iterations=20, burn_in=5,
                           rng=np.random.default_rng(5))
        # posterior ~ prior: background near shape/(rate + T)
        assert np.all(result.background < 0.01)
        assert np.all(result.weights < 0.3)

    def test_deterministic_given_rng(self, simulated):
        _, events = simulated
        a = fit_gibbs(events, 20, n_iterations=15, burn_in=5,
                      rng=np.random.default_rng(7))
        b = fit_gibbs(events, 20, n_iterations=15, burn_in=5,
                      rng=np.random.default_rng(7))
        assert np.allclose(a.weights, b.weights)
        assert np.allclose(a.background, b.background)


class TestEm:
    def test_recovers_weights(self, simulated):
        params, events = simulated
        result = fit_em(events, params.max_lag)
        for k in range(2):
            assert result.weights[k, k] == pytest.approx(
                params.weights[k, k], rel=0.4)

    def test_monotone_convergence_reported(self, simulated):
        params, events = simulated
        result = fit_em(events, params.max_lag, max_iterations=100)
        assert result.n_iterations <= 100
        assert np.isfinite(result.log_likelihood)

    def test_agrees_with_gibbs(self, simulated):
        params, events = simulated
        em = fit_em(events, params.max_lag)
        gibbs = fit_gibbs(events, params.max_lag, n_iterations=80,
                          burn_in=30, rng=np.random.default_rng(11))
        assert np.allclose(em.weights, gibbs.weights, atol=0.08)
        assert np.allclose(em.background, gibbs.background,
                           rtol=0.6, atol=0.004)

    def test_em_beats_null_model(self, simulated):
        from repro.core.hawkes.model import discrete_log_likelihood
        params, events = simulated
        result = fit_em(events, params.max_lag)
        null = HawkesParams(
            background=events.events_per_process() / events.n_bins,
            weights=np.zeros((2, 2)),
            impulse=np.tile(np.full(20, 0.05), (2, 2, 1)))
        assert result.log_likelihood > discrete_log_likelihood(null, events)

    def test_empty_events(self):
        events = DiscreteEvents.from_pairs([], n_bins=500, n_processes=3)
        result = fit_em(events, 10)
        assert result.params.n_processes == 3
        assert np.all(result.weights >= 0)


class TestPriorInfluence:
    def test_tighter_weight_prior_shrinks_estimates(self, simulated):
        _, events = simulated
        loose = fit_em(events, 20, priors=Priors(weight_rate=1.0))
        tight = fit_em(events, 20, priors=Priors(weight_rate=500.0))
        assert tight.weights.sum() < loose.weights.sum()

    def test_background_prior_dominates_empty_data(self):
        events = DiscreteEvents.from_pairs([], n_bins=100, n_processes=1)
        priors = Priors(background_shape=2.0, background_rate=100.0)
        result = fit_em(events, 10, priors=priors)
        # MAP = (shape - 1 + 0) / (rate + T) = 1/200
        assert result.background[0] == pytest.approx(1 / 200, rel=1e-6)
