"""Tests for the discrete Hawkes model: rates, integrals, likelihood."""

import numpy as np
import pytest

from repro.core.events import DiscreteEvents
from repro.core.hawkes.model import (
    HawkesParams,
    discrete_log_likelihood,
    expected_rate,
)

from test_hawkes_kernels import batched_rate_integral


def uniform_impulse(k, max_lag):
    return np.full((k, k, max_lag), 1.0 / max_lag)


def make_params(k=2, max_lag=5, background=None, weights=None):
    background = (np.full(k, 0.01) if background is None
                  else np.asarray(background, dtype=float))
    weights = (np.full((k, k), 0.1) if weights is None
               else np.asarray(weights, dtype=float))
    return HawkesParams(background=background, weights=weights,
                        impulse=uniform_impulse(k, max_lag))


def events_from(pairs, n_bins=50, k=2):
    return DiscreteEvents.from_pairs(pairs, n_bins=n_bins, n_processes=k)


class TestParamsValidation:
    def test_valid(self):
        params = make_params()
        assert params.n_processes == 2
        assert params.max_lag == 5

    def test_negative_background_rejected(self):
        with pytest.raises(ValueError):
            make_params(background=[-0.1, 0.1])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            make_params(weights=[[0.1, -0.1], [0.1, 0.1]])

    def test_unnormalized_impulse_rejected(self):
        with pytest.raises(ValueError):
            HawkesParams(background=np.ones(1), weights=np.ones((1, 1)),
                         impulse=np.full((1, 1, 4), 0.5))

    def test_wrong_weight_shape_rejected(self):
        with pytest.raises(ValueError):
            HawkesParams(background=np.ones(2), weights=np.ones((3, 3)),
                         impulse=uniform_impulse(2, 4))

    def test_spectral_radius(self):
        params = make_params(weights=[[0.5, 0.0], [0.0, 0.25]])
        assert params.spectral_radius() == pytest.approx(0.5)

    def test_branching_kernel_mass(self):
        params = make_params()
        kernel = params.branching_kernel()
        assert np.allclose(kernel.sum(axis=2), params.weights)


class TestExpectedRate:
    def test_background_only_when_no_events(self):
        params = make_params()
        events = events_from([])
        rates = expected_rate(params, events, query_bins=np.array([0, 10]))
        assert np.allclose(rates, 0.01)

    def test_excitation_after_event(self):
        params = make_params(k=1, max_lag=5,
                             background=[0.0], weights=[[1.0]])
        events = events_from([(0, 0)], k=1)
        rates = expected_rate(params, events,
                              query_bins=np.array([1, 3, 5, 6]))
        # uniform impulse over lags 1..5 -> 0.2 per lag inside window
        assert rates[0, 0] == pytest.approx(0.2)
        assert rates[1, 0] == pytest.approx(0.2)
        assert rates[2, 0] == pytest.approx(0.2)
        assert rates[3, 0] == pytest.approx(0.0)  # beyond max lag

    def test_event_does_not_excite_own_bin(self):
        params = make_params(k=1, background=[0.0], weights=[[1.0]])
        events = events_from([(3, 0)], k=1)
        rates = expected_rate(params, events, query_bins=np.array([3]))
        assert rates[0, 0] == pytest.approx(0.0)

    def test_counts_scale_excitation(self):
        params = make_params(k=1, background=[0.0], weights=[[1.0]])
        single = events_from([(0, 0)], k=1)
        double = events_from([(0, 0), (0, 0)], k=1)
        r1 = expected_rate(params, single, query_bins=np.array([2]))
        r2 = expected_rate(params, double, query_bins=np.array([2]))
        assert r2[0, 0] == pytest.approx(2 * r1[0, 0])

    def test_cross_process_excitation(self):
        weights = [[0.0, 0.8], [0.0, 0.0]]
        params = make_params(weights=weights, background=[0.0, 0.0])
        events = events_from([(0, 0)])
        rates = expected_rate(params, events, query_bins=np.array([1]))
        assert rates[0, 1] == pytest.approx(0.8 / 5)
        assert rates[0, 0] == pytest.approx(0.0)

    def test_matches_dense_computation(self, rng):
        k, max_lag, n_bins = 3, 7, 60
        params = HawkesParams(
            background=rng.uniform(0.001, 0.05, k),
            weights=rng.uniform(0, 0.3, (k, k)),
            impulse=np.tile(rng.dirichlet(np.ones(max_lag)), (k, k, 1)),
        )
        pairs = [(int(rng.integers(n_bins)), int(rng.integers(k)))
                 for _ in range(25)]
        events = DiscreteEvents.from_pairs(pairs, n_bins, k)
        dense = events.to_dense()
        kernel = params.branching_kernel()
        query = np.arange(n_bins)
        expected = np.tile(params.background, (n_bins, 1))
        for t in range(n_bins):
            for d in range(1, max_lag + 1):
                if t - d >= 0:
                    expected[t] += dense[t - d] @ kernel[:, :, d - 1]
        got = expected_rate(params, events, query_bins=query)
        assert np.allclose(got, expected)


class TestRateIntegral:
    def test_background_contribution(self):
        params = make_params(background=[0.02, 0.03], weights=np.zeros((2, 2)))
        events = events_from([], n_bins=100)
        integral = batched_rate_integral(params, events)
        assert np.allclose(integral, [2.0, 3.0])

    def test_full_kernel_mass_when_far_from_end(self):
        params = make_params(k=1, background=[0.0], weights=[[0.7]])
        events = events_from([(0, 0)], n_bins=50, k=1)
        integral = batched_rate_integral(params, events)
        assert integral[0] == pytest.approx(0.7)

    def test_truncated_kernel_near_end(self):
        params = make_params(k=1, max_lag=5, background=[0.0],
                             weights=[[1.0]])
        # event 2 bins before the end: only lags 1..2 fit -> 0.4 mass
        events = events_from([(47, 0)], n_bins=50, k=1)
        integral = batched_rate_integral(params, events)
        assert integral[0] == pytest.approx(0.4)

    def test_event_in_last_bin_contributes_nothing(self):
        params = make_params(k=1, background=[0.0], weights=[[1.0]])
        events = events_from([(49, 0)], n_bins=50, k=1)
        assert (batched_rate_integral(params, events)[0]
                == pytest.approx(0.0))

    def test_integral_equals_summed_rates(self, rng):
        k, max_lag, n_bins = 2, 6, 40
        params = HawkesParams(
            background=rng.uniform(0.01, 0.1, k),
            weights=rng.uniform(0, 0.4, (k, k)),
            impulse=np.tile(rng.dirichlet(np.ones(max_lag)), (k, k, 1)),
        )
        pairs = [(int(rng.integers(n_bins)), int(rng.integers(k)))
                 for _ in range(15)]
        events = DiscreteEvents.from_pairs(pairs, n_bins, k)
        rates = expected_rate(params, events, query_bins=np.arange(n_bins))
        assert np.allclose(batched_rate_integral(params, events),
                           rates.sum(axis=0))


class TestLogLikelihood:
    def test_empty_events_is_negative_integral(self):
        params = make_params(background=[0.02, 0.03], weights=np.zeros((2, 2)))
        events = events_from([], n_bins=100)
        assert discrete_log_likelihood(params, events) == pytest.approx(-5.0)

    def test_process_count_mismatch_rejected(self):
        events = events_from([(5, 0), (7, 1)], k=2)
        with pytest.raises(ValueError, match="disagree on K"):
            discrete_log_likelihood(make_params(k=1), events)

    def test_zero_rate_at_event_is_minus_inf(self):
        params = make_params(k=1, background=[0.0],
                             weights=np.zeros((1, 1)))
        events = events_from([(5, 0)], k=1)
        assert discrete_log_likelihood(params, events) == -np.inf

    def test_matches_poisson_formula(self):
        # Single process, background only: Poisson likelihood per bin.
        lam = 0.05
        params = make_params(k=1, background=[lam], weights=np.zeros((1, 1)))
        events = events_from([(1, 0), (1, 0), (7, 0)], n_bins=10, k=1)
        from scipy.stats import poisson
        expected = (poisson.logpmf(2, lam) + poisson.logpmf(1, lam)
                    + 8 * poisson.logpmf(0, lam))
        assert discrete_log_likelihood(params, events) == pytest.approx(
            expected)

    def test_likelihood_prefers_true_weights(self, rng):
        from repro.core.hawkes.simulation import simulate_branching
        k, max_lag = 2, 10
        impulse = np.tile(np.full(max_lag, 0.1), (k, k, 1))
        true = HawkesParams(
            background=np.array([0.01, 0.01]),
            weights=np.array([[0.4, 0.2], [0.0, 0.3]]),
            impulse=impulse)
        events = simulate_branching(true, 5000, rng)
        wrong = HawkesParams(
            background=true.background,
            weights=np.zeros((k, k)),
            impulse=impulse)
        assert (discrete_log_likelihood(true, events)
                > discrete_log_likelihood(wrong, events))
