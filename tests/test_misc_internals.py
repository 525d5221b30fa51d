"""Tests for smaller internals: id allocation, flattened parent arrays,
pipeline slices, and dataset workflows."""

import numpy as np
import pytest

from repro.core.events import DiscreteEvents
from repro.core.hawkes.basis import DirichletLagBasis
from repro.platforms.base import IdAllocator
from repro.news.domains import NewsCategory

from parent_reference import ParentStructure


class TestIdAllocator:
    def test_monotonic_per_prefix(self):
        ids = IdAllocator()
        assert ids.next_id("t") == "t1"
        assert ids.next_id("t") == "t2"

    def test_independent_namespaces(self):
        ids = IdAllocator()
        ids.next_id("a")
        assert ids.next_id("b") == "b1"


class TestFlattenedParentStructure:
    @pytest.fixture()
    def structure(self):
        events = DiscreteEvents.from_pairs(
            [(0, 0), (2, 1), (3, 0), (50, 1)], n_bins=100, n_processes=2)
        return ParentStructure(events, DirichletLagBasis(10))

    def test_offsets_partition_candidates(self, structure):
        sizes = [len(s) for s in structure.cand_src]
        assert list(np.diff(structure.offsets)) == sizes
        assert structure.offsets[-1] == len(structure.flat_src)

    def test_flat_dst_alignment(self, structure):
        events = structure.events
        for m in range(len(events)):
            lo, hi = structure.offsets[m], structure.offsets[m + 1]
            assert np.all(structure.flat_dst[lo:hi]
                          == events.processes[m])

    def test_vectorized_matches_per_event(self, structure):
        rng = np.random.default_rng(0)
        k = 2
        weights = rng.uniform(0.01, 0.5, (k, k))
        # One lag per bucket: the bucket PMF is the per-lag PMF.
        lag_pmf = np.tile(rng.dirichlet(np.ones(10)), (k, k, 1))
        flat = structure.candidate_values(weights, lag_pmf)
        events = structure.events
        for m in range(len(events)):
            dst = int(events.processes[m])
            src = structure.cand_src[m]
            lag = structure.cand_lag[m]
            cnt = structure.cand_cnt[m]
            vals = cnt * weights[src, dst] * lag_pmf[src, dst, lag - 1]
            lo, hi = structure.offsets[m], structure.offsets[m + 1]
            assert np.allclose(vals, flat[lo:hi])

    def test_empty_events(self):
        events = DiscreteEvents.from_pairs([], n_bins=10, n_processes=2)
        structure = ParentStructure(events, DirichletLagBasis(5))
        assert len(structure.flat_src) == 0
        vals = structure.candidate_values(
            np.ones((2, 2)), np.full((2, 2, 5), 0.2))
        assert len(vals) == 0


class TestPipelineWorkflows:
    def test_save_and_reload_collected(self, collected, tmp_path):
        collected.twitter.save_jsonl(tmp_path / "tw.jsonl")
        from repro.collection.store import Dataset
        loaded = Dataset.load_jsonl(tmp_path / "tw.jsonl")
        assert len(loaded) == len(collected.twitter)
        # authors survive the round trip
        assert ({r.author_id for r in loaded}
                == {r.author_id for r in collected.twitter})

    def test_merged_covers_all_platforms(self, collected):
        merged = collected.merged()
        platforms = {r.platform for r in merged}
        assert platforms == {"twitter", "reddit", "4chan"}
        assert len(merged) == (len(collected.twitter)
                               + len(collected.reddit)
                               + len(collected.fourchan))

    def test_url_domains_consistent_with_registry(self, collected,
                                                  registry):
        for url, domain in list(collected.url_domains().items())[:100]:
            entry = registry.lookup(domain)
            assert entry is not None

    def test_influence_cascades_category_consistency(self, cascades):
        for cascade in cascades[:100]:
            assert cascade.category in (NewsCategory.ALTERNATIVE,
                                        NewsCategory.MAINSTREAM)
            times = [t for t, _ in cascade.events]
            assert times == sorted(times)
