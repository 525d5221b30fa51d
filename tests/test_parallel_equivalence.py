"""Golden equivalence: parallel corpus fits are bit-identical to serial.

The determinism guarantee of :mod:`repro.parallel` is the contract every
caller (ablation sweeps, live refitter, CLI) builds on, so it is
enforced here exactly — ``np.array_equal``, not ``allclose`` — for
worker counts 1/2/4 and adversarial chunk sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HawkesConfig
from repro.core.influence import UrlCascade, fit_corpus
from repro.news.domains import NewsCategory

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM

#: Small lag window + few sweeps keep each per-URL fit in the
#: millisecond range; the equivalence property is size-independent.
FAST = HawkesConfig(gibbs_iterations=10, gibbs_burn_in=3, max_lag_bins=60)

#: Event templates with enough structure for non-trivial attributions.
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


def assert_results_identical(a, b):
    assert a.processes == b.processes
    assert len(a.fits) == len(b.fits)
    for fit_a, fit_b in zip(a.fits, b.fits):
        assert fit_a.url == fit_b.url
        assert fit_a.category == fit_b.category
        assert np.array_equal(fit_a.weights, fit_b.weights)
        assert np.array_equal(fit_a.background, fit_b.background)
        assert np.array_equal(fit_a.event_counts, fit_b.event_counts)
        assert fit_a.n_bins == fit_b.n_bins
        assert fit_a.log_likelihood == fit_b.log_likelihood
        assert fit_a.weight_samples is not None
        assert fit_a.weight_samples.shape[0] > 0
        assert np.array_equal(fit_a.weight_samples, fit_b.weight_samples)


class TestGoldenEquivalence:
    """Fixed-corpus exact checks for every (n_jobs, chunking)."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(9, events_per_url=6)

    @pytest.fixture(scope="class")
    def serial(self, corpus):
        return fit_corpus(corpus, FAST, rng=np.random.default_rng(77),
                          n_jobs=1, keep_samples=True)

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_bit_identical_to_serial(self, corpus, serial, n_jobs):
        parallel = fit_corpus(corpus, FAST, rng=np.random.default_rng(77),
                              n_jobs=n_jobs, keep_samples=True)
        assert_results_identical(serial, parallel)

    @pytest.mark.parametrize("chunk_size", [1, 2, 5])
    def test_chunk_size_never_matters(self, corpus, serial, chunk_size):
        parallel = fit_corpus(corpus, FAST, rng=np.random.default_rng(77),
                              n_jobs=2, chunk_size=chunk_size,
                              keep_samples=True)
        assert_results_identical(serial, parallel)

    def test_int_seed_equals_generator_seed(self, corpus, serial):
        from_int = fit_corpus(corpus, FAST, rng=77, n_jobs=2,
                              keep_samples=True)
        assert_results_identical(serial, from_int)

    def test_progress_reported_in_parallel(self, corpus):
        calls = []
        fit_corpus(corpus, FAST, rng=77, n_jobs=2, chunk_size=2,
                   progress=lambda done, total: calls.append((done, total)))
        assert calls[-1] == (len(corpus), len(corpus))


@settings(max_examples=6, deadline=None)
@given(
    n_urls=st.integers(min_value=1, max_value=5),
    events_per_url=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_jobs=st.sampled_from([2, 4]),
)
def test_property_parallel_equals_serial(n_urls, events_per_url, seed,
                                         n_jobs):
    """Property form: any corpus, any seed, any fan-out — same bits."""
    corpus = build_corpus(n_urls, events_per_url)
    serial = fit_corpus(corpus, FAST, rng=np.random.default_rng(seed),
                        n_jobs=1, keep_samples=True)
    parallel = fit_corpus(corpus, FAST, rng=np.random.default_rng(seed),
                          n_jobs=n_jobs, chunk_size=1, keep_samples=True)
    assert_results_identical(serial, parallel)
