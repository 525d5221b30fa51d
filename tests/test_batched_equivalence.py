"""Corpus fits vs per-URL fits equivalence (golden + property form).

``fit_corpus`` packs the corpus into batched Gibbs programs; every
URL's fit must equal the frozen per-URL sweep of
``tests/gibbs_reference.py`` run on that URL alone with the URL's task
seed, bit for bit, for every batch size and worker count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbs_reference import reference_fit_gibbs
from repro.config import HAWKES_PROCESSES, HawkesConfig
from repro.core.hawkes.basis import LogBinnedLagBasis
from repro.core.hawkes.inference import Priors
from repro.core.influence import UrlCascade, cascade_to_events, fit_corpus
from repro.news.domains import NewsCategory
from repro.parallel import spawn_task_seeds

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM

FAST = HawkesConfig(max_lag_bins=60, gibbs_iterations=10, gibbs_burn_in=3)
SEED = 21

PATTERNS = (
    ("Twitter", 0.0), ("Twitter", 90.0), ("/pol/", 200.0),
    ("The_Donald", 420.0), ("politics", 1500.0), ("Twitter", 2400.0),
)


def build_corpus(n_urls, events_per_url, spacing=1e6):
    cascades = []
    for i in range(n_urls):
        t0 = i * spacing
        events = tuple((t0 + offset + 13.0 * i, name)
                       for name, offset in PATTERNS[:events_per_url])
        category = ALT if i % 2 else MAIN
        cascades.append(UrlCascade(f"u{i}", category, events))
    return cascades


def dense_cascade(i, n_events=17, spacing=1e6):
    """A URL whose last entry has ``n_events - 1`` candidate parents,
    the longest candidate-mass segment of its batch."""
    names = ("Twitter", "/pol/", "The_Donald", "politics")
    events = tuple((i * spacing + 60.0 * j, names[j % len(names)])
                   for j in range(n_events))
    return UrlCascade(f"u{i}", ALT if i % 2 else MAIN, events)


def build_mixed_corpus(rng, n_urls):
    """Randomized corpora with the shapes the real selection produces:
    mixed cascade sizes, near-empty cascades, single-process URLs."""
    cascades = []
    for i in range(n_urls):
        t0 = i * 1e6
        if i % 5 == 4:  # single-process URL
            events = tuple((t0 + 60.0 * j, "Twitter") for j in range(3))
        else:
            n = int(rng.integers(1, 12))
            names = rng.choice(HAWKES_PROCESSES, size=n)
            offsets = np.sort(rng.uniform(0, 30_000, size=n))
            events = tuple((t0 + off, str(name))
                           for off, name in zip(offsets, names))
        category = ALT if i % 2 else MAIN
        cascades.append(UrlCascade(f"u{i}", category, events))
    return cascades


def reference_corpus(corpus, config, seed):
    """Each URL fitted alone by the frozen per-URL sweep, with the task
    seed ``fit_corpus`` gives it."""
    basis = LogBinnedLagBasis(config.max_lag_bins)
    priors = Priors(background_shape=config.background_shape,
                    background_rate=config.background_rate,
                    weight_shape=config.weight_shape,
                    weight_rate=config.weight_rate,
                    impulse_concentration=config.impulse_concentration)
    fits = []
    for cascade, task_seed in zip(corpus,
                                  spawn_task_seeds(seed, len(corpus))):
        events = cascade_to_events(cascade, delta_t=config.delta_t)
        fits.append(reference_fit_gibbs(
            events, config.max_lag_bins, basis=basis, priors=priors,
            n_iterations=config.gibbs_iterations,
            burn_in=config.gibbs_burn_in,
            rng=np.random.default_rng(task_seed)))
    return fits


def assert_matches_reference(corpus, result, reference):
    assert result.processes == HAWKES_PROCESSES
    assert len(result.fits) == len(reference)
    for cascade, fit, ref in zip(corpus, result.fits, reference):
        assert fit.url == cascade.url
        assert fit.category == cascade.category
        assert np.array_equal(fit.background, ref.background)
        assert np.array_equal(fit.weights, ref.weights)
        assert fit.log_likelihood == ref.log_likelihood


class TestGoldenBatchedEquivalence:
    """Fixed corpus, every batch size and fan-out vs per-URL Gibbs."""

    @pytest.fixture(scope="class")
    def corpus(self):
        corpus = build_corpus(11, events_per_url=6)
        corpus[5] = dense_cascade(5)
        return corpus

    @pytest.fixture(scope="class")
    def per_url(self, corpus):
        return reference_corpus(corpus, FAST, SEED)

    @pytest.mark.parametrize("chunk_size", [1, 2, 5, 11, 64])
    def test_every_batch_size_matches_per_url(self, corpus, per_url,
                                              chunk_size):
        assert_matches_reference(corpus, fit_corpus(
            corpus, FAST, rng=SEED, chunk_size=chunk_size), per_url)

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_parallel_batched_matches_per_url(self, corpus, per_url,
                                              n_jobs):
        assert_matches_reference(corpus, fit_corpus(
            corpus, FAST, rng=SEED, n_jobs=n_jobs), per_url)

    def test_batched_bit_identical_across_chunking(self, corpus, per_url):
        for chunk_size in (None, 1, 3, 7):
            assert_matches_reference(corpus, fit_corpus(
                corpus, FAST, rng=SEED, chunk_size=chunk_size), per_url)

    def test_batched_bit_identical_across_workers(self, corpus, per_url):
        assert_matches_reference(corpus, fit_corpus(
            corpus, FAST, rng=SEED, n_jobs=2, chunk_size=3), per_url)

    def test_progress_reaches_total(self, corpus):
        calls = []
        fit_corpus(corpus, FAST, rng=SEED, chunk_size=4,
                   progress=lambda done, total: calls.append((done, total)))
        assert calls[-1] == (len(corpus), len(corpus))
        assert all(total == len(corpus) for _, total in calls)


class TestEngineValidation:
    def test_empty_corpus(self):
        result = fit_corpus([], FAST, rng=SEED)
        assert result.fits == []


@settings(max_examples=6, deadline=None)
@given(
    n_urls=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    chunk_size=st.sampled_from([1, 2, 3, 1024]),
)
def test_property_batched_equals_per_url(n_urls, seed, chunk_size):
    """Any corpus shape, any batch size: every URL fits as if alone."""
    corpus = build_mixed_corpus(np.random.default_rng(seed), n_urls)
    assert_matches_reference(corpus, fit_corpus(
        corpus, FAST, rng=seed, chunk_size=chunk_size),
        reference_corpus(corpus, FAST, seed))
