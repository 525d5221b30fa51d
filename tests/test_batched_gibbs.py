"""Batched Gibbs vs the frozen per-URL sampler, bit for bit.

``fit_gibbs_batched`` is the only Gibbs sweep; ``tests/gibbs_reference``
keeps the per-URL sweep it replaced.  Cascades never share a draw or an
order-sensitive sum, so every cascade's background, weights, impulse,
weight samples and log-likelihood must equal the reference exactly
(``np.array_equal``, not ``allclose``) for every batch composition,
chunk size, candidate budget and worker count.
"""

import json

import numpy as np
import pytest

import repro.core.influence as influence
from gibbs_reference import reference_fit_gibbs
from repro.config import HawkesConfig
from repro.core.events import DiscreteEvents, bin_timestamps
from repro.core.hawkes.basis import DirichletLagBasis, LogBinnedLagBasis
from repro.core.hawkes.batched import (
    candidate_counts,
    fit_gibbs_batched,
    split_by_candidates,
)
from repro.core.hawkes.inference import fit_gibbs
from repro.core.influence import cascade_to_events, fit_corpus
from repro.obs import MetricsRegistry, set_registry, start_trace, stop_trace

from test_batched_equivalence import build_mixed_corpus, reference_corpus

K = 3
MAX_LAG = 30
BASIS = LogBinnedLagBasis(MAX_LAG, 6)
SWEEPS = dict(n_iterations=14, burn_in=4)
FAST = HawkesConfig(max_lag_bins=60, gibbs_iterations=12, gibbs_burn_in=3)


def make_events(rng, n_events, n_procs=K, horizon=3000.0):
    ts = np.sort(rng.uniform(0, horizon, size=n_events))
    procs = rng.integers(0, n_procs, size=n_events)
    return bin_timestamps(ts, procs, n_processes=n_procs, delta_t=60.0)


@pytest.fixture(scope="module")
def events_batch():
    rng = np.random.default_rng(3)
    batch = [make_events(rng, int(rng.integers(2, 40))) for _ in range(7)]
    # A single event; events too far apart to parent each other (no
    # candidates); repeated counts in one bin; a window-end pile-up.
    batch.append(DiscreteEvents.from_pairs([(4, 1)], n_bins=20,
                                           n_processes=K))
    batch.append(DiscreteEvents.from_pairs([(0, 0), (200, 2)], n_bins=400,
                                           n_processes=K))
    batch.append(DiscreteEvents.from_pairs(
        [(3, 0), (3, 0), (3, 2), (5, 0)], n_bins=12, n_processes=K))
    return batch


def assert_fit_equal(got, ref):
    assert np.array_equal(got.background, ref.background)
    assert np.array_equal(got.weights, ref.weights)
    assert np.array_equal(got.params.impulse, ref.params.impulse)
    assert np.array_equal(got.weight_samples, ref.weight_samples)
    assert got.weight_samples.shape == ref.weight_samples.shape
    assert got.log_likelihood == ref.log_likelihood
    assert got.n_iterations == ref.n_iterations


def reference_fits(events_list, seeds, basis=BASIS, keep_samples=True):
    return [reference_fit_gibbs(ev, basis.max_lag, basis=basis,
                                rng=np.random.default_rng(seed),
                                keep_samples=keep_samples, **SWEEPS)
            for ev, seed in zip(events_list, seeds)]


class TestFitGibbsBatched:
    @pytest.mark.parametrize("basis", [BASIS, DirichletLagBasis(MAX_LAG)],
                             ids=["log-binned", "dirichlet"])
    @pytest.mark.parametrize("keep_samples", [True, False])
    def test_every_cascade_equals_reference(self, events_batch, basis,
                                            keep_samples):
        seeds = range(len(events_batch))
        batch = fit_gibbs_batched(
            events_batch, MAX_LAG, [np.random.default_rng(s) for s in seeds],
            basis=basis, keep_samples=keep_samples, **SWEEPS)
        refs = reference_fits(events_batch, seeds, basis, keep_samples)
        assert len(batch) == len(events_batch)
        for c, ref in enumerate(refs):
            assert_fit_equal(batch.fit_result(c), ref)

    def test_shuffled_compositions_equal_reference(self, events_batch):
        seeds = [100 + i for i in range(len(events_batch))]
        refs = reference_fits(events_batch, seeds)
        rng = np.random.default_rng(0)
        for size in (1, 3, 6, len(events_batch)):
            picked = rng.permutation(len(events_batch))[:size]
            batch = fit_gibbs_batched(
                [events_batch[i] for i in picked], MAX_LAG,
                [np.random.default_rng(seeds[i]) for i in picked],
                basis=BASIS, **SWEEPS)
            for c, i in enumerate(picked):
                assert_fit_equal(batch.fit_result(c), refs[i])

    def test_single_process_cascades(self):
        # K = 1: np.mean reduces a lone cell's draws pairwise, which a
        # running sum would not reproduce.
        rng = np.random.default_rng(5)
        batch_events = [make_events(rng, n, n_procs=1) for n in (3, 25, 60)]
        batch = fit_gibbs_batched(
            batch_events, MAX_LAG,
            [np.random.default_rng(s) for s in range(3)],
            basis=BASIS, n_iterations=40, burn_in=10)
        for c, ev in enumerate(batch_events):
            ref = reference_fit_gibbs(ev, MAX_LAG, basis=BASIS,
                                      n_iterations=40, burn_in=10,
                                      rng=np.random.default_rng(c))
            assert_fit_equal(batch.fit_result(c), ref)

    def test_fit_gibbs_is_the_one_cascade_call(self, events_batch):
        for seed, ev in enumerate(events_batch[:4]):
            got = fit_gibbs(ev, MAX_LAG, basis=BASIS,
                            rng=np.random.default_rng(seed), **SWEEPS)
            ref = reference_fit_gibbs(ev, MAX_LAG, basis=BASIS,
                                      rng=np.random.default_rng(seed),
                                      **SWEEPS)
            assert_fit_equal(got, ref)

    def test_rejects_mismatched_generators(self, events_batch):
        with pytest.raises(ValueError, match="generator"):
            fit_gibbs_batched(events_batch, MAX_LAG,
                              [np.random.default_rng(0)], basis=BASIS)


class TestCandidateBudget:
    def test_split_keeps_runs_within_budget(self):
        counts = np.array([5, 3, 9, 40, 1, 1, 2])
        runs = split_by_candidates(counts, 10)
        assert [(r.start, r.stop) for r in runs] == [
            (0, 2), (2, 3), (3, 4), (4, 7)]
        assert split_by_candidates(np.array([], dtype=np.int64), 10) == []

    def test_candidate_counts_match_structure(self, events_batch):
        from parent_reference import ParentStructure
        counts = candidate_counts(events_batch, MAX_LAG)
        assert counts.tolist() == [
            len(ParentStructure(ev, BASIS).flat_src) for ev in events_batch]


def assert_corpus_equal(result, refs):
    assert len(result.fits) == len(refs)
    for fit, ref in zip(result.fits, refs):
        assert np.array_equal(fit.background, ref.background)
        assert np.array_equal(fit.weights, ref.weights)
        assert fit.log_likelihood == ref.log_likelihood
        assert np.array_equal(fit.weight_samples, ref.weight_samples)


class TestCorpusGibbs:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_mixed_corpus(np.random.default_rng(4), 9)

    @pytest.fixture(scope="class")
    def refs(self, corpus):
        return reference_corpus(corpus, FAST, 17)

    @pytest.mark.parametrize("n_jobs,chunk_size", [
        (1, None), (1, 1), (1, 3), (2, None), (2, 3)])
    def test_fit_corpus_equals_per_url_reference(self, corpus, refs,
                                                 n_jobs, chunk_size):
        result = fit_corpus(corpus, FAST, rng=17, n_jobs=n_jobs,
                            chunk_size=chunk_size, keep_samples=True)
        assert_corpus_equal(result, refs)

    @pytest.mark.parametrize("budget", [1, 40])
    def test_any_candidate_budget_equals_reference(self, corpus, refs,
                                                   budget, monkeypatch):
        monkeypatch.setattr(influence, "MAX_BATCH_CANDIDATES", budget)
        assert_corpus_equal(
            fit_corpus(corpus, FAST, rng=17, keep_samples=True), refs)

    def test_samples_dropped_unless_kept(self, corpus):
        result = fit_corpus(corpus, FAST, rng=17)
        assert all(fit.weight_samples is None for fit in result.fits)

    def test_metrics_count_urls_and_batches(self, corpus, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr(influence, "MAX_BATCH_CANDIDATES", 40)
        n_runs = len(split_by_candidates(candidate_counts(
            [cascade_to_events(c) for c in corpus], FAST.max_lag_bins), 40))
        assert n_runs > 1
        registry = MetricsRegistry()
        previous = set_registry(registry)
        start_trace(tmp_path / "trace.jsonl")
        try:
            fit_corpus(corpus, FAST, rng=17)
        finally:
            stop_trace()
            set_registry(previous)
        families = registry.snapshot()["metrics"]

        def value(name, **labels):
            for sample in families[name]["samples"]:
                if all(sample["labels"].get(k) == v
                       for k, v in labels.items()):
                    return sample.get("count", sample.get("value"))
            raise KeyError(labels)

        assert value("repro_fit_total", method="gibbs") == len(corpus)
        assert value("repro_fit_batch_total", method="gibbs") == n_runs
        assert value("repro_fit_batch_cascades", method="gibbs") == n_runs
        spans = [json.loads(line) for line in
                 (tmp_path / "trace.jsonl").read_text().splitlines()]
        (fit_span,) = [s for s in spans if s["name"] == "fit_corpus"]
        assert fit_span["attrs"]["method"] == "gibbs"
        assert "engine" not in fit_span["attrs"]

