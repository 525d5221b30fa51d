"""Chaos-equivalence: injected transient faults change nothing downstream.

The headline fault-tolerance property: under a seeded schedule of
transient source errors, malformed records, worker crashes, and cache
corruption, the pipeline's final aggregates, fits, and artifacts are
bit-identical to a fault-free run — every recovery path replays
deterministic work instead of improvising.
"""

import numpy as np
import pytest

from repro.api import Study
from repro.config import HawkesConfig
from repro.core.influence import fit_corpus, select_urls
from repro.live import EventBus, LiveEngine
from repro.pipeline import stream_source_factories, stream_sources
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    Quarantine,
    clear_worker_faults,
    corrupt_object,
    install_worker_faults,
    supervised_source,
)


def test_live_engine_chaos_equivalence(small_world):
    """Faulted supervised ingest == clean ingest, bit for bit."""
    clean = LiveEngine(EventBus(stream_sources(small_world)),
                       summary_every=0)
    clean.run()

    plan = FaultPlan(3, FaultSpec(transient_errors=2,
                                  malformed_records=2, horizon=800))
    sink = Quarantine()
    sources = []
    for name, factory in stream_source_factories(small_world):
        faults = plan.source(name)
        faulted = (lambda f=factory, inj=faults: inj.wrap(f()))
        sources.append((name, supervised_source(
            name, faulted, quarantine=sink, sleep=lambda s: None)))
    chaotic = LiveEngine(EventBus(sources), summary_every=0)
    chaotic.run()

    assert sink.count > 0  # the injection was not inert
    assert set(sink.by_reason()) == {"not a DatasetRecord"}
    assert chaotic.records_seen == clean.records_seen
    assert chaotic.state_dict() == clean.state_dict()


class TestParallelChaos:
    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        clear_worker_faults()

    def test_fit_corpus_worker_crash_bit_identical(self, cascades,
                                                   tmp_path):
        corpus = select_urls(cascades)[:6]
        config = HawkesConfig(max_lag_bins=60, gibbs_iterations=12,
                              gibbs_burn_in=4)
        baseline = fit_corpus(corpus, config=config,
                              rng=5, n_jobs=1)

        install_worker_faults(tmp_path / "faults", crashes=1,
                              mode="raise")
        crashed = fit_corpus(corpus, config=config,
                             rng=5, n_jobs=2, chunk_size=2)
        clear_worker_faults()

        assert len(baseline.fits) == len(crashed.fits)
        for a, b in zip(baseline.fits, crashed.fits):
            assert a.url == b.url
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.background, b.background)

    def test_fit_corpus_pool_breakage_bit_identical(self, cascades,
                                                    tmp_path):
        corpus = select_urls(cascades)[:6]
        config = HawkesConfig(max_lag_bins=60, gibbs_iterations=12,
                              gibbs_burn_in=4)
        baseline = fit_corpus(corpus, config=config,
                              rng=5, n_jobs=1)

        install_worker_faults(tmp_path / "faults", crashes=1,
                              mode="exit")
        survived = fit_corpus(corpus, config=config,
                              rng=5, n_jobs=2, chunk_size=2)
        clear_worker_faults()

        for a, b in zip(baseline.fits, survived.fits):
            assert a.url == b.url
            assert np.array_equal(a.weights, b.weights)


def test_study_artifacts_identical_after_cache_corruption(
        collected, tmp_path):
    """Corrupting a cached artifact costs a recompute, not correctness."""
    hawkes = HawkesConfig(gibbs_iterations=12, gibbs_burn_in=4)

    def build():
        return Study.from_data(collected, hawkes=hawkes, fit_seed=0,
                               max_urls=5, cache_dir=tmp_path / "cache")

    study = build()
    table_key = study.stage_key("table:2")
    before = study.table(2).to_payload()
    assert study.store.contains(table_key)

    corrupt_object(study.store, table_key)
    rebuilt = build()  # fresh session, cold memory layer
    after = rebuilt.table(2).to_payload()
    assert after == before
    quarantine_dir = tmp_path / "cache" / "quarantine"
    assert quarantine_dir.exists() and any(quarantine_dir.iterdir())
