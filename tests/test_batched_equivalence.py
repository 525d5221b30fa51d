"""Batched-vs-per-URL corpus equivalence (golden + property form).

The per-URL EM path is the golden reference: ``engine="batched"`` must
reproduce it within floating-point tolerance for every batch size and
worker count (mirroring ``tests/test_parallel_equivalence.py``, which
pins the per-URL path bit-for-bit across ``n_jobs``).  Between batched
runs the bar is higher — cascades never interact inside a batch, so
chunking and fan-out must not change a single bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HAWKES_PROCESSES, HawkesConfig
from repro.core.influence import UrlCascade, fit_corpus
from repro.news.domains import NewsCategory

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM

FAST = HawkesConfig(max_lag_bins=60)

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


def assert_results_close(reference, batched):
    assert reference.processes == batched.processes
    assert len(reference.fits) == len(batched.fits)
    for ref, got in zip(reference.fits, batched.fits):
        assert ref.url == got.url
        assert ref.category == got.category
        assert np.array_equal(ref.event_counts, got.event_counts)
        assert ref.n_bins == got.n_bins
        np.testing.assert_allclose(got.weights, ref.weights,
                                   rtol=5e-3, atol=1e-8)
        np.testing.assert_allclose(got.background, ref.background,
                                   rtol=5e-3, atol=1e-10)
        assert got.log_likelihood == pytest.approx(
            ref.log_likelihood, rel=1e-4)


def assert_results_bit_identical(a, b):
    for fit_a, fit_b in zip(a.fits, b.fits):
        assert fit_a.url == fit_b.url
        assert np.array_equal(fit_a.weights, fit_b.weights)
        assert np.array_equal(fit_a.background, fit_b.background)
        assert fit_a.log_likelihood == fit_b.log_likelihood


class TestGoldenBatchedEquivalence:
    """Fixed corpus, every batch size and fan-out vs the per-URL path."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(11, events_per_url=6)

    @pytest.fixture(scope="class")
    def per_url(self, corpus):
        return fit_corpus(corpus, FAST, method="em")

    @pytest.mark.parametrize("chunk_size", [1, 2, 5, 11, 64])
    def test_every_batch_size_matches_per_url(self, corpus, per_url,
                                              chunk_size):
        batched = fit_corpus(corpus, FAST, method="em", engine="batched",
                             chunk_size=chunk_size)
        assert_results_close(per_url, batched)

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_parallel_batched_matches_per_url(self, corpus, per_url,
                                              n_jobs):
        batched = fit_corpus(corpus, FAST, method="em", engine="batched",
                             n_jobs=n_jobs)
        assert_results_close(per_url, batched)

    def test_batched_bit_identical_across_chunking(self, corpus):
        whole = fit_corpus(corpus, FAST, method="em", engine="batched")
        for chunk_size in (1, 3, 7):
            split = fit_corpus(corpus, FAST, method="em",
                               engine="batched", chunk_size=chunk_size)
            assert_results_bit_identical(whole, split)

    def test_batched_bit_identical_across_workers(self, corpus):
        serial = fit_corpus(corpus, FAST, method="em", engine="batched")
        fanned = fit_corpus(corpus, FAST, method="em", engine="batched",
                            n_jobs=2, chunk_size=3)
        assert_results_bit_identical(serial, fanned)

    def test_progress_reaches_total(self, corpus):
        calls = []
        fit_corpus(corpus, FAST, method="em", engine="batched",
                   chunk_size=4,
                   progress=lambda done, total: calls.append((done, total)))
        assert calls[-1] == (len(corpus), len(corpus))
        assert all(total == len(corpus) for _, total in calls)

    def test_per_url_engine_is_default_and_unchanged(self, corpus, per_url):
        explicit = fit_corpus(corpus, FAST, method="em",
                              engine="per-url")
        assert_results_bit_identical(per_url, explicit)


class TestEngineValidation:
    def test_batched_gibbs_matches_per_url_engine(self):
        corpus = build_corpus(3, 4)
        per_url = fit_corpus(corpus, FAST, method="gibbs", rng=1)
        batched = fit_corpus(corpus, FAST, method="gibbs", rng=1,
                             engine="batched")
        assert_results_bit_identical(per_url, batched)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            fit_corpus(build_corpus(2, 4), FAST, method="em",
                       engine="vectorized")

    def test_empty_corpus(self):
        result = fit_corpus([], FAST, method="em", engine="batched")
        assert result.fits == []


@settings(max_examples=6, deadline=None)
@given(
    n_urls=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    chunk_size=st.sampled_from([1, 2, 3, 1024]),
)
def test_property_batched_equals_per_url(n_urls, seed, chunk_size):
    """Any corpus shape, any batch size: batched tracks the golden path."""
    corpus = build_mixed_corpus(np.random.default_rng(seed), n_urls)
    per_url = fit_corpus(corpus, FAST, method="em")
    batched = fit_corpus(corpus, FAST, method="em", engine="batched",
                         chunk_size=chunk_size)
    assert_results_close(per_url, batched)
