"""Unit tests for batched fits: packing, candidate layout and results.

The bit-for-bit match of batched Gibbs with the frozen per-URL sweep is
pinned by ``tests/test_batched_gibbs.py``.
"""

import numpy as np
import pytest

from repro.core.events import bin_timestamps
from repro.core.hawkes.basis import LogBinnedLagBasis
from repro.core.hawkes.batched import (
    BatchedParentStructure,
    PackedCascades,
    fit_gibbs_batched,
)
from repro.core.hawkes.kernels import segment_ranges

K = 4
MAX_LAG = 48


def make_events(rng, n_events, n_procs=K, horizon=4000.0):
    ts = np.sort(rng.uniform(0, horizon, size=n_events))
    procs = rng.integers(0, n_procs, size=n_events)
    return bin_timestamps(ts, procs, n_processes=n_procs, delta_t=60.0)


@pytest.fixture(scope="module")
def events_batch():
    rng = np.random.default_rng(42)
    batch = [make_events(rng, int(rng.integers(1, 25))) for _ in range(8)]
    # A cascade whose last entry has 16 candidate parents.
    batch.insert(4, bin_timestamps(60.0 * np.arange(17), np.arange(17) % K,
                                   n_processes=K, delta_t=60.0))
    # Degenerate shapes the corpus actually contains: a lone event and
    # a single-process cascade.
    batch.append(bin_timestamps([30.0], [1], n_processes=K, delta_t=60.0))
    batch.append(bin_timestamps([0.0, 120.0, 180.0], [2, 2, 2],
                                n_processes=K, delta_t=60.0))
    return batch


class TestPackedCascades:
    def test_segment_layout(self, events_batch):
        packed = PackedCascades(events_batch, MAX_LAG)
        assert packed.n_cascades == len(events_batch)
        assert packed.entry_offsets[-1] == sum(len(e) for e in events_batch)
        for c, ev in enumerate(events_batch):
            lo, hi = packed.entry_offsets[c], packed.entry_offsets[c + 1]
            assert np.array_equal(packed.cascade_of[lo:hi], np.full(hi - lo, c))
            assert np.array_equal(
                packed.bins[lo:hi] - packed.bin_offsets[c], ev.bins)
            assert np.array_equal(packed.processes[lo:hi], ev.processes)
            assert np.array_equal(packed.counts[lo:hi], ev.counts)

    def test_bins_globally_sorted(self, events_batch):
        packed = PackedCascades(events_batch, MAX_LAG)
        assert np.all(np.diff(packed.bins) >= 0)

    def test_guard_gap_exceeds_max_lag(self, events_batch):
        packed = PackedCascades(events_batch, MAX_LAG)
        for c in range(packed.n_cascades - 1):
            last = packed.bin_offsets[c] + packed.n_bins[c] - 1
            first_next = packed.bin_offsets[c + 1]
            assert first_next - last > MAX_LAG

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            PackedCascades([], MAX_LAG)

    def test_rejects_mixed_process_counts(self, events_batch):
        odd = bin_timestamps([0.0], [0], n_processes=K + 1, delta_t=60.0)
        with pytest.raises(ValueError):
            PackedCascades(list(events_batch) + [odd], MAX_LAG)


class TestBatchedParentStructure:
    def test_candidates_never_cross_cascades(self, events_batch):
        packed = PackedCascades(events_batch, MAX_LAG)
        basis = LogBinnedLagBasis(MAX_LAG)
        structure = BatchedParentStructure(packed, basis)
        # Recompute the candidate (parent, child) index pairs and check
        # both sides always live in the same cascade.
        lo = np.searchsorted(packed.bins, packed.bins - MAX_LAG, "left")
        hi = np.searchsorted(packed.bins, packed.bins, "left")
        flat_idx, sizes, _ = segment_ranges(lo, hi)
        parent_cascade = packed.cascade_of[flat_idx]
        child_cascade = np.repeat(packed.cascade_of, sizes)
        assert np.array_equal(parent_cascade, child_cascade)
        assert np.array_equal(structure.flat_cascade, child_cascade)
        assert np.all(structure.flat_lag >= 1)
        assert np.all(structure.flat_lag <= MAX_LAG)

    def test_matches_per_cascade_structure(self, events_batch):
        from parent_reference import ParentStructure
        packed = PackedCascades(events_batch, MAX_LAG)
        basis = LogBinnedLagBasis(MAX_LAG)
        batched = BatchedParentStructure(packed, basis)
        # Candidate enumeration per cascade must be the per-URL one.
        cursor = 0
        for c, ev in enumerate(events_batch):
            single = ParentStructure(ev, basis)
            n = len(single.flat_src)
            sl = slice(cursor, cursor + n)
            assert np.array_equal(batched.flat_src[sl], single.flat_src)
            assert np.array_equal(batched.flat_lag[sl], single.flat_lag)
            assert np.array_equal(batched.flat_dst[sl], single.flat_dst)
            assert np.array_equal(batched.flat_cnt[sl], single.flat_cnt)
            assert np.all(batched.flat_cascade[sl] == c)
            cursor += n
        assert cursor == len(batched.flat_src)


def fit_batch(events_batch, **kwargs):
    rngs = [np.random.default_rng(c) for c in range(len(events_batch))]
    return fit_gibbs_batched(events_batch, MAX_LAG, rngs, n_iterations=12,
                             burn_in=4, **kwargs)


class TestFitGibbsBatched:
    def test_fit_result_expands_valid_params(self, events_batch):
        batch = fit_batch(events_batch)
        result = batch.fit_result(0)
        k = events_batch[0].n_processes
        assert result.params.background.shape == (k,)
        assert result.params.weights.shape == (k, k)
        assert result.params.impulse.shape == (k, k, MAX_LAG)
        np.testing.assert_allclose(result.params.impulse.sum(axis=2), 1.0)
        assert np.isfinite(result.log_likelihood)
        assert result.weight_samples.shape == (8, k, k)

    def test_basis_max_lag_mismatch_rejected(self, events_batch):
        with pytest.raises(ValueError):
            fit_batch(events_batch, basis=LogBinnedLagBasis(MAX_LAG + 1))

    def test_pmfs_stay_normalized(self, events_batch):
        batch = fit_batch(events_batch)
        np.testing.assert_allclose(batch.bucket_pmf.sum(axis=3), 1.0)
        assert np.all(batch.background > 0)
        assert np.all(batch.weights >= 0)
        assert batch.n_iterations == 12
