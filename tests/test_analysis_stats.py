"""Tests for ECDF and KS utilities (incl. property tests)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import Ecdf, KsResult, ks_two_sample, summarize


class TestEcdf:
    def test_basic_evaluation(self):
        ecdf = Ecdf([1, 2, 3, 4])
        assert ecdf(0) == 0.0
        assert ecdf(1) == 0.25
        assert ecdf(2.5) == 0.5
        assert ecdf(4) == 1.0
        assert ecdf(100) == 1.0

    def test_vector_evaluation(self):
        ecdf = Ecdf([1, 2, 3, 4])
        values = ecdf(np.array([0, 2, 5]))
        assert list(values) == [0.0, 0.5, 1.0]

    def test_quantile(self):
        ecdf = Ecdf([10, 20, 30, 40])
        assert ecdf.quantile(0.25) == 10
        assert ecdf.quantile(0.5) == 20
        assert ecdf.quantile(1.0) == 40
        assert ecdf.median == 20

    def test_quantile_bounds(self):
        ecdf = Ecdf([1])
        with pytest.raises(ValueError):
            ecdf.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ecdf([])

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            Ecdf(np.ones((2, 2)))

    def test_log_grid(self):
        ecdf = Ecdf([1, 10, 100, 1000])
        xs, ys = ecdf.on_log_grid(n_points=10)
        assert xs[0] == pytest.approx(1)
        assert xs[-1] == pytest.approx(1000)
        assert ys[-1] == pytest.approx(1.0)
        assert np.all(np.diff(ys) >= 0)

    def test_log_grid_needs_positive(self):
        with pytest.raises(ValueError):
            Ecdf([-1, -2]).on_log_grid()


class TestKs:
    def test_identical_samples_high_p(self):
        sample = np.arange(100)
        result = ks_two_sample(sample, sample)
        assert result.pvalue == pytest.approx(1.0)
        assert not result.significant()

    def test_different_samples_low_p(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 500)
        b = rng.normal(3, 1, 500)
        result = ks_two_sample(a, b)
        assert result.significant(0.01)
        assert result.statistic > 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1])

    def test_result_type(self):
        result = ks_two_sample([1, 2], [1, 2])
        assert isinstance(result, KsResult)


class TestSummarize:
    def test_values(self):
        summary = summarize([1, 2, 3, 4])
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["n"] == 4
        assert summary["min"] == 1
        assert summary["max"] == 4

    def test_empty(self):
        assert summarize([])["n"] == 0


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_ecdf_monotone_and_bounded(sample):
    ecdf = Ecdf(sample)
    grid = np.linspace(min(sample) - 1, max(sample) + 1, 50)
    values = np.asarray(ecdf(grid))
    assert np.all(np.diff(values) >= 0)
    assert values[0] >= 0.0
    assert values[-1] == 1.0


@given(st.lists(st.floats(0.001, 1e6), min_size=1, max_size=100),
       st.floats(0.0, 1.0))
def test_ecdf_quantile_inverse_property(sample, q):
    ecdf = Ecdf(sample)
    x = ecdf.quantile(q)
    # F(F^{-1}(q)) >= q (right-continuous inverse)
    assert ecdf(x) >= q - 1e-12
