"""Batched vs per-URL corpus fits: urls/sec per method × corpus shape.

Batching exists for exactly one workload: many small cascades, where a
per-URL fit is NumPy-dispatch-bound (hundreds of kernel launches per
URL on arrays with tens of elements).  For each method this bench fits
the same synthetic corpora with one ``fit_em`` / ``fit_gibbs`` call per
URL (one-cascade batches) and with ``fit_corpus``, which packs chunks
of cascades (both ``n_jobs=1``, so the comparison isolates the
packing, not process fan-out), checks the two are bit-identical, and
reports urls/sec plus the batched speedup per shape.

``BENCH_SMOKE=1`` shrinks the corpora for a fast CI pass.  Corpora are
synthesized directly — no world build — so the full mode stays in
seconds, not minutes.
"""

import os
import time

import numpy as np

from repro.config import HAWKES_PROCESSES, HawkesConfig
from repro.core.hawkes import LogBinnedLagBasis, fit_em, fit_gibbs
from repro.core.hawkes.inference import Priors
from repro.core.influence import UrlCascade, cascade_to_events, fit_corpus
from repro.parallel import spawn_task_seeds
from repro.news.domains import NewsCategory
from repro.reporting import render_table

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: (name, n_urls, events_per_url) — tiny cascades dominate the paper's
#: corpus (median URL has a handful of posts), small ones the tail.
SHAPES = ((("tiny-cascades", 120, 5), ("small-cascades", 60, 12))
          if SMOKE else
          (("tiny-cascades", 1500, 5), ("small-cascades", 400, 12)))

BENCH_HAWKES = HawkesConfig(max_lag_bins=120)
#: Gibbs at the sweep budget of ``repro report``; fewer URLs per shape,
#: since a Gibbs sweep costs about as much as an EM iteration.
GIBBS_HAWKES = HawkesConfig(max_lag_bins=120, gibbs_iterations=30,
                            gibbs_burn_in=10)
GIBBS_URLS = 40 if SMOKE else 300


def build_corpus(n_urls, events_per_url, seed):
    """Synthetic selected-corpus lookalike: every URL clears the
    Twitter + /pol/ + subreddit bar, remaining events are random."""
    rng = np.random.default_rng(seed)
    cascades = []
    for i in range(n_urls):
        t0 = i * 1e6
        events = [(t0, "Twitter"), (t0 + 180.0, "/pol/"),
                  (t0 + 420.0, "The_Donald")]
        for _ in range(events_per_url - 3):
            name = str(rng.choice(HAWKES_PROCESSES))
            events.append((t0 + float(rng.uniform(0, 40_000)), name))
        events.sort()
        category = (NewsCategory.ALTERNATIVE if i % 2
                    else NewsCategory.MAINSTREAM)
        cascades.append(UrlCascade(f"u{i}", category, tuple(events)))
    return cascades


def _priors(config):
    return Priors(background_shape=config.background_shape,
                  background_rate=config.background_rate,
                  weight_shape=config.weight_shape,
                  weight_rate=config.weight_rate,
                  impulse_concentration=config.impulse_concentration)


def _per_url_em(corpus):
    """One ``fit_em`` call per URL, configured as ``fit_corpus`` is."""
    config = BENCH_HAWKES
    basis = LogBinnedLagBasis(config.max_lag_bins)
    return [fit_em(cascade_to_events(cascade), config.max_lag_bins,
                   basis=basis, priors=_priors(config))
            for cascade in corpus]


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _batched_em(corpus):
    return fit_corpus(corpus, BENCH_HAWKES, method="em")


def test_bench_batched_corpus(benchmark, save_result):
    corpora = {name: build_corpus(n, m, seed=17 + i)
               for i, (name, n, m) in enumerate(SHAPES)}
    first_shape = SHAPES[0][0]
    rows = []
    for name, n_urls, events_per_url in SHAPES:
        corpus = corpora[name]
        per_url, per_url_s = _timed(_per_url_em, corpus)
        if name == first_shape:
            # One shape goes through the benchmark fixture so the run
            # is visible to pytest-benchmark's own reporting.
            batched, batched_s = benchmark.pedantic(
                _timed, args=(_batched_em, corpus), rounds=1, iterations=1)
        else:
            batched, batched_s = _timed(_batched_em, corpus)
        for ref, got in zip(per_url, batched.fits):
            assert np.array_equal(got.weights, ref.weights)
            assert got.log_likelihood == ref.log_likelihood
        speedup = per_url_s / batched_s
        rows.append([name, str(n_urls), str(events_per_url),
                     f"{n_urls / per_url_s:.1f}",
                     f"{n_urls / batched_s:.1f}", f"{speedup:.1f}x"])
    table = render_table(
        ["Corpus", "URLs", "Ev/URL", "per-url URLs/s", "batched URLs/s",
         "Speedup"],
        rows, title=f"Corpus EM, n_jobs=1, max_lag="
                    f"{BENCH_HAWKES.max_lag_bins}"
                    f"{' (smoke)' if SMOKE else ''}")
    save_result("batched_corpus_throughput.txt", table)
    print()
    print(table)


def _per_url_gibbs(corpus, seed):
    """One ``fit_gibbs`` call per URL, seeded as ``fit_corpus`` seeds."""
    config = GIBBS_HAWKES
    basis = LogBinnedLagBasis(config.max_lag_bins)
    return [fit_gibbs(cascade_to_events(cascade), config.max_lag_bins,
                      basis=basis, priors=_priors(config),
                      n_iterations=config.gibbs_iterations,
                      burn_in=config.gibbs_burn_in,
                      rng=np.random.default_rng(task_seed),
                      keep_samples=False)
            for cascade, task_seed in zip(
                corpus, spawn_task_seeds(seed, len(corpus)))]


def test_bench_batched_gibbs_corpus(save_result):
    rows = []
    for i, (name, _, events_per_url) in enumerate(SHAPES):
        corpus = build_corpus(GIBBS_URLS, events_per_url, seed=17 + i)
        start = time.perf_counter()
        per_url = _per_url_gibbs(corpus, seed=5)
        per_url_s = time.perf_counter() - start
        start = time.perf_counter()
        batched = fit_corpus(corpus, GIBBS_HAWKES, rng=5)
        batched_s = time.perf_counter() - start
        for ref, got in zip(per_url, batched.fits):
            assert np.array_equal(got.weights, ref.weights)
            assert got.log_likelihood == ref.log_likelihood
        speedup = per_url_s / batched_s
        rows.append([name, str(GIBBS_URLS), str(events_per_url),
                     f"{GIBBS_URLS / per_url_s:.1f}",
                     f"{GIBBS_URLS / batched_s:.1f}", f"{speedup:.1f}x"])
    table = render_table(
        ["Corpus", "URLs", "Ev/URL", "per-url URLs/s", "batched URLs/s",
         "Speedup"],
        rows, title=f"Corpus Gibbs, {GIBBS_HAWKES.gibbs_iterations} sweeps,"
                    f" n_jobs=1, max_lag={GIBBS_HAWKES.max_lag_bins}"
                    f"{' (smoke)' if SMOKE else ''}")
    save_result("batched_gibbs_throughput.txt", table)
    print()
    print(table)
