"""Tests for the ablation sweep machinery."""

import numpy as np
import pytest

from repro.analysis.ablation import (
    EstimatorComparison,
    estimator_agreement,
    sweep_bin_size,
    sweep_gap_trim,
    sweep_max_lag,
    weight_stability,
)
from repro.config import HawkesConfig
from repro.core.influence import UrlCascade
from repro.news.domains import NewsCategory
from repro.timeutil import Interval

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM

FAST = HawkesConfig(gibbs_iterations=15, gibbs_burn_in=5)


def make_corpus(n=6, bursts=10):
    """Cascades with repeated bursts so estimators see real structure:
    each burst is Twitter -> Twitter -> /pol/ -> The_Donald."""
    cascades = []
    for i in range(n):
        t0 = float(i) * 1e7
        category = ALT if i % 2 else MAIN
        events = []
        for b in range(bursts):
            tb = t0 + b * 7200.0
            events.extend([(tb, "Twitter"), (tb + 120, "Twitter"),
                           (tb + 300, "/pol/"),
                           (tb + 600, "The_Donald")])
        events.append((t0 + bursts * 7200.0, "politics"))
        cascades.append(UrlCascade(url=f"u{i}", category=category,
                                   events=tuple(events)))
    return cascades


class TestSweeps:
    def test_bin_size_sweep(self):
        points = sweep_bin_size(make_corpus(), FAST,
                                bin_seconds=(60, 300), seed=1)
        assert [p.label for p in points] == ["dt=60s", "dt=300s"]
        for point in points:
            assert point.n_urls == 6
            assert point.mean_weight_alt.shape == (8, 8)

    def test_max_lag_sweep(self):
        points = sweep_max_lag(make_corpus(), FAST, lag_hours=(6, 12),
                               seed=1)
        assert [p.label for p in points] == ["lag=6h", "lag=12h"]
        # results should be in the same ballpark across windows
        assert weight_stability(points) < 0.9

    def test_gap_trim_sweep(self):
        gaps = [Interval(0, 10**9)]  # everything overlaps
        points = sweep_gap_trim(make_corpus(), gaps, FAST,
                                fractions=(0.0, 0.5), seed=1)
        assert points[0].n_urls == 6
        assert points[1].n_urls == 3

    def test_twitter_self_excitation_accessor(self):
        points = sweep_bin_size(make_corpus(), FAST, bin_seconds=(60,),
                                seed=1)
        alt, main = points[0].twitter_self_excitation()
        assert alt > 0
        assert main > 0

    def test_weight_stability_degenerate(self):
        assert weight_stability([]) == 0.0


class TestEstimatorAgreement:
    @pytest.fixture(scope="class")
    def comparison(self):
        return estimator_agreement(make_corpus(), FAST, seed=2)

    def test_shapes(self, comparison):
        assert comparison.gibbs.shape == (6, 8, 8)
        assert comparison.continuous.shape == (6, 8, 8)

    def test_gibbs_em_agree(self, comparison):
        # Discrete-time Gibbs and continuous-time EM model the lags
        # differently (per-bucket PMF vs one exponential decay), so they
        # agree on the corpus-mean matrix (Figure 10's quantity), not
        # cell by cell on every sparse URL.
        assert comparison.mean_matrix_correlation("gibbs",
                                                  "continuous") > 0.4
        assert comparison.mean_absolute_difference("gibbs",
                                                   "continuous") < 0.1

    def test_continuous_nonnegative(self, comparison):
        assert np.all(comparison.continuous >= 0)

    def test_correlation_handles_constant(self):
        flat = EstimatorComparison(
            gibbs=np.zeros((2, 8, 8)),
            continuous=np.zeros((2, 8, 8)))
        assert flat.correlation("gibbs", "continuous") == 0.0
