"""Pickle round-trips for everything that crosses process boundaries.

``parallel_map`` ships cascades, fit specs, and fitted results between
processes; these tests pin down that every payload survives a pickle
round-trip unchanged (dataclass + ndarray fields included).
"""

import pickle

import numpy as np
import pytest

from repro.config import HawkesConfig
from repro.core.events import bin_timestamps
from repro.core.hawkes.basis import LogBinnedLagBasis
from repro.core.hawkes.inference import Priors, fit_gibbs
from repro.core.influence import (
    InfluenceResult,
    UrlCascade,
    UrlFit,
    fit_corpus,
)
from repro.news.domains import NewsCategory

ALT = NewsCategory.ALTERNATIVE


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.fixture(scope="module")
def events():
    return bin_timestamps([0.0, 90.0, 200.0, 420.0, 1500.0],
                          [7, 7, 6, 0, 2], n_processes=8, delta_t=60.0)


@pytest.fixture(scope="module")
def gibbs_result(events):
    return fit_gibbs(events, 60, basis=LogBinnedLagBasis(60),
                     n_iterations=8, burn_in=3,
                     rng=np.random.default_rng(0), keep_samples=True)


class TestFitResultRoundTrip:
    def test_gibbs_result(self, gibbs_result):
        restored = roundtrip(gibbs_result)
        assert np.array_equal(restored.params.background,
                              gibbs_result.params.background)
        assert np.array_equal(restored.params.weights,
                              gibbs_result.params.weights)
        assert np.array_equal(restored.params.impulse,
                              gibbs_result.params.impulse)
        assert np.array_equal(restored.weight_samples,
                              gibbs_result.weight_samples)
        assert restored.log_likelihood == gibbs_result.log_likelihood
        assert restored.n_iterations == gibbs_result.n_iterations

    def test_result_without_samples(self, events):
        result = fit_gibbs(events, 60, basis=LogBinnedLagBasis(60),
                           n_iterations=8, burn_in=3,
                           rng=np.random.default_rng(1), keep_samples=False)
        restored = roundtrip(result)
        assert np.array_equal(restored.params.weights,
                              result.params.weights)
        assert restored.weight_samples.size == 0


class TestUrlFitRoundTrip:
    def test_with_and_without_samples(self, gibbs_result):
        for samples in (None, gibbs_result.weight_samples):
            fit = UrlFit(url="u", category=ALT,
                         background=gibbs_result.params.background,
                         weights=gibbs_result.params.weights,
                         event_counts=np.arange(8, dtype=np.int64),
                         n_bins=26, log_likelihood=-12.5,
                         weight_samples=samples)
            restored = roundtrip(fit)
            assert restored.url == "u"
            assert restored.category is ALT
            assert np.array_equal(restored.weights, fit.weights)
            assert np.array_equal(restored.event_counts, fit.event_counts)
            if samples is None:
                assert restored.weight_samples is None
            else:
                assert np.array_equal(restored.weight_samples, samples)


class TestInfluenceResultRoundTrip:
    def test_full_corpus_result(self):
        cascades = [
            UrlCascade(f"u{i}", ALT,
                       ((i * 1e6, "Twitter"), (i * 1e6 + 120, "/pol/"),
                        (i * 1e6 + 300, "The_Donald")))
            for i in range(3)
        ]
        config = HawkesConfig(gibbs_iterations=8, gibbs_burn_in=3,
                              max_lag_bins=30)
        result = fit_corpus(cascades, config, rng=3, keep_samples=True)
        restored = roundtrip(result)
        assert restored.processes == result.processes
        assert len(restored.fits) == 3
        for orig, back in zip(result.fits, restored.fits):
            assert back.url == orig.url
            assert np.array_equal(back.weights, orig.weights)
            assert np.array_equal(back.weight_samples, orig.weight_samples)
        # aggregation still works on the restored object
        assert restored.weight_stack(ALT).shape == (3, 8, 8)


class TestWorkerPayloadRoundTrip:
    """The other direction: what the main process ships to workers."""

    def test_cascade(self):
        cascade = UrlCascade("u", ALT, ((0.0, "Twitter"), (60.0, "/pol/")))
        assert roundtrip(cascade) == cascade

    def test_basis_and_priors_and_events(self, events):
        basis = LogBinnedLagBasis(720)
        restored = roundtrip(basis)
        assert restored.max_lag == basis.max_lag
        assert np.array_equal(restored.bucket_of, basis.bucket_of)
        assert roundtrip(Priors()) == Priors()
        restored_events = roundtrip(events)
        assert np.array_equal(restored_events.bins, events.bins)
        assert restored_events.n_bins == events.n_bins

    def test_seed_sequence_stream_survives(self):
        seed = np.random.SeedSequence(5, spawn_key=(2,))
        restored = roundtrip(seed)
        assert (np.random.default_rng(restored).random(4).tolist()
                == np.random.default_rng(seed).random(4).tolist())
