"""Batched vs per-URL corpus Gibbs fits: urls/sec per corpus shape.

Batching exists for exactly one workload: many small cascades, where a
per-URL fit is NumPy-dispatch-bound (hundreds of kernel launches per
URL on arrays with tens of elements).  This bench fits the same
synthetic corpora with one ``fit_gibbs`` call per URL (one-cascade
batches) and with ``fit_corpus``, which packs chunks of cascades (both
``n_jobs=1``, so the comparison isolates the packing, not process
fan-out), checks the two are bit-identical, and reports urls/sec plus
the batched speedup per shape.

``BENCH_SMOKE=1`` shrinks the corpora for a fast CI pass.  Corpora are
synthesized directly — no world build — so the full mode stays in
seconds, not minutes.
"""

import os
import time

import numpy as np

from repro.config import HAWKES_PROCESSES, HawkesConfig
from repro.core.hawkes import LogBinnedLagBasis, fit_gibbs
from repro.core.hawkes.inference import Priors
from repro.core.influence import UrlCascade, cascade_to_events, fit_corpus
from repro.parallel import spawn_task_seeds
from repro.news.domains import NewsCategory
from repro.reporting import render_table

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: (name, events_per_url) — tiny cascades dominate the paper's corpus
#: (median URL has a handful of posts), small ones the tail.
SHAPES = (("tiny-cascades", 5), ("small-cascades", 12))
N_URLS = 40 if SMOKE else 300

#: Gibbs at the sweep budget of ``repro report``.
BENCH_HAWKES = HawkesConfig(max_lag_bins=120, gibbs_iterations=30,
                            gibbs_burn_in=10)


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


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _per_url_gibbs(corpus, seed):
    """One ``fit_gibbs`` call per URL, seeded as ``fit_corpus`` seeds."""
    config = BENCH_HAWKES
    basis = LogBinnedLagBasis(config.max_lag_bins)
    return [fit_gibbs(cascade_to_events(cascade), config.max_lag_bins,
                      basis=basis, priors=_priors(config),
                      n_iterations=config.gibbs_iterations,
                      burn_in=config.gibbs_burn_in,
                      rng=np.random.default_rng(task_seed),
                      keep_samples=False)
            for cascade, task_seed in zip(
                corpus, spawn_task_seeds(seed, len(corpus)))]


def _batched_gibbs(corpus, seed):
    return fit_corpus(corpus, BENCH_HAWKES, rng=seed)


def test_bench_batched_corpus(benchmark, save_result):
    rows = []
    for i, (name, events_per_url) in enumerate(SHAPES):
        corpus = build_corpus(N_URLS, events_per_url, seed=17 + i)
        per_url, per_url_s = _timed(_per_url_gibbs, corpus, 5)
        if i == 0:
            # One shape goes through the benchmark fixture so the run
            # is visible to pytest-benchmark's own reporting.
            batched, batched_s = benchmark.pedantic(
                _timed, args=(_batched_gibbs, corpus, 5), rounds=1,
                iterations=1)
        else:
            batched, batched_s = _timed(_batched_gibbs, corpus, 5)
        for ref, got in zip(per_url, batched.fits):
            assert np.array_equal(got.weights, ref.weights)
            assert got.log_likelihood == ref.log_likelihood
        speedup = per_url_s / batched_s
        rows.append([name, str(N_URLS), str(events_per_url),
                     f"{N_URLS / per_url_s:.1f}",
                     f"{N_URLS / batched_s:.1f}", f"{speedup:.1f}x"])
    table = render_table(
        ["Corpus", "URLs", "Ev/URL", "per-url URLs/s", "batched URLs/s",
         "Speedup"],
        rows, title=f"Corpus Gibbs, {BENCH_HAWKES.gibbs_iterations} sweeps,"
                    f" n_jobs=1, max_lag={BENCH_HAWKES.max_lag_bins}"
                    f"{' (smoke)' if SMOKE else ''}")
    save_result("batched_corpus_throughput.txt", table)
    print()
    print(table)
