"""Tests for MCMC diagnostics, predictive checks, and residuals."""

import numpy as np
import pytest

from repro.core.events import DiscreteEvents
from repro.core.hawkes import (
    HawkesParams,
    LogBinnedLagBasis,
    fit_gibbs,
    simulate_branching,
)
from repro.core.hawkes.diagnostics import (
    CalibrationRanks,
    ChainDiagnostics,
    diagnose_weight_chains,
    effective_sample_size,
    geweke_z,
    posterior_predictive_check,
    residual_uniformity,
    sbc_ranks,
)


def make_params(background, weights, max_lag=10):
    background = np.asarray(background, dtype=float)
    weights = np.asarray(weights, dtype=float)
    k = len(background)
    impulse = np.tile(np.full(max_lag, 1.0 / max_lag), (k, k, 1))
    return HawkesParams(background=background, weights=weights,
                        impulse=impulse)


class TestGeweke:
    def test_iid_chain_small_z(self, rng):
        chain = rng.normal(0, 1, 2000)
        assert abs(geweke_z(chain)) < 3.5

    def test_drifting_chain_large_z(self):
        chain = np.linspace(0, 10, 1000) + 0.01 * np.sin(
            np.arange(1000))
        assert abs(geweke_z(chain)) > 5

    def test_constant_chain(self):
        assert geweke_z(np.ones(100)) == 0.0

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            geweke_z(np.ones(5))


class TestEss:
    def test_iid_ess_near_n(self, rng):
        chain = rng.normal(0, 1, 1000)
        ess = effective_sample_size(chain)
        assert ess > 500

    def test_correlated_chain_low_ess(self, rng):
        chain = np.zeros(1000)
        for i in range(1, 1000):
            chain[i] = 0.98 * chain[i - 1] + rng.normal(0, 0.05)
        assert effective_sample_size(chain) < 200

    def test_tiny_chain(self):
        assert effective_sample_size(np.array([1.0, 2.0])) == 2.0

    def test_constant_chain(self):
        assert effective_sample_size(np.ones(50)) == 50.0


class TestChainDiagnostics:
    @pytest.fixture(scope="class")
    def gibbs_result(self):
        params = make_params([0.01, 0.008],
                             [[0.3, 0.1], [0.05, 0.25]], max_lag=15)
        rng = np.random.default_rng(3)
        events = simulate_branching(params, 30_000, rng)
        return fit_gibbs(events, 15, n_iterations=80, burn_in=20,
                         rng=rng)

    def test_diagnose(self, gibbs_result):
        diag = diagnose_weight_chains(gibbs_result.weight_samples)
        assert diag.geweke.shape == (2, 2)
        assert diag.n_samples == 60
        assert diag.min_ess > 1

    def test_converged_on_good_chain(self, gibbs_result):
        # short chains (60 kept samples, 4 cells): assert only the
        # absence of catastrophic divergence
        diag = diagnose_weight_chains(gibbs_result.weight_samples)
        assert diag.converged(z_threshold=6.0, min_ess=2.0,
                              max_flagged_fraction=0.25)

    def test_rejects_short_chains(self):
        with pytest.raises(ValueError):
            diagnose_weight_chains(np.zeros((5, 2, 2)))

    def test_converged_thresholds(self):
        diag = ChainDiagnostics(
            geweke=np.array([[5.0]]), ess=np.array([[100.0]]),
            n_samples=50)
        assert not diag.converged()
        assert diag.worst_geweke == 5.0


class TestPredictiveCheck:
    def test_well_specified_model_passes(self, rng):
        params = make_params([0.02, 0.01], [[0.2, 0.1], [0.1, 0.2]])
        events = simulate_branching(params, 20_000, rng)
        check = posterior_predictive_check(params, events,
                                           n_replicates=15, rng=rng)
        assert check.acceptable(threshold=4.0)

    def test_misspecified_model_fails(self, rng):
        truth = make_params([0.05], [[0.0]])
        events = simulate_branching(truth, 20_000, rng)
        wrong = make_params([0.001], [[0.0]])
        check = posterior_predictive_check(wrong, events,
                                           n_replicates=15, rng=rng)
        assert not check.acceptable(threshold=3.0)
        assert check.z_scores[0] > 3

    def test_shapes(self, rng):
        params = make_params([0.01, 0.01, 0.01], np.zeros((3, 3)))
        events = simulate_branching(params, 5_000, rng)
        check = posterior_predictive_check(params, events,
                                           n_replicates=5, rng=rng)
        assert check.observed.shape == (3,)
        assert check.replicated_mean.shape == (3,)


class TestResiduals:
    def test_true_model_uniform_residuals(self, rng):
        params = make_params([0.03, 0.02], [[0.2, 0.1], [0.05, 0.25]])
        events = simulate_branching(params, 15_000, rng)
        pvalue = residual_uniformity(params, events, rng=rng)
        assert pvalue > 0.001  # no strong evidence of misfit

    def test_wrong_model_rejected(self, rng):
        truth = make_params([0.05], [[0.4]])
        events = simulate_branching(truth, 15_000, rng)
        wrong = make_params([0.005], [[0.0]])
        pvalue = residual_uniformity(wrong, events, rng=rng)
        assert pvalue < 0.01

    def test_no_events_rejected(self, rng):
        params = make_params([0.01], [[0.0]])
        empty = DiscreteEvents.from_pairs([], n_bins=100, n_processes=1)
        with pytest.raises(ValueError):
            residual_uniformity(params, empty, rng=rng)


class TestSimulationBasedCalibration:
    """The Gibbs sampler targets its own posterior (Talts et al.)."""

    def test_gibbs_ranks_uniform(self):
        # 200 prior draws, 5000 bins each (~120 events), 60 sweeps thinned
        # to 10 draws: the pooled 11-bin rank histogram of the 4 weight
        # cells must look uniform.  A sampler whose exposure drops the
        # cap bucket's covered fraction fails this at p ~ 1e-57.
        result = sbc_ranks(LogBinnedLagBasis(30, 6), n_processes=2,
                           n_bins=5000, n_replications=200,
                           n_iterations=60, burn_in=20, thin=4,
                           rng=np.random.default_rng(0))
        assert result.ranks.shape == (200, 4)
        assert result.n_draws == 10
        assert result.chi_square_pvalue() > 0.001

    def test_ranks_count_draws_below_truth(self):
        ranks = CalibrationRanks(ranks=np.array([[0, 2], [1, 2]]),
                                 n_draws=2)
        assert ranks.histogram().tolist() == [1, 1, 2]
        result = sbc_ranks(LogBinnedLagBasis(10, 3), n_processes=1,
                           n_bins=500, n_replications=3, n_iterations=12,
                           burn_in=2, thin=5, rng=np.random.default_rng(1))
        assert result.n_draws == 2
        assert result.ranks.min() >= 0 and result.ranks.max() <= 2
