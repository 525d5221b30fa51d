"""Unit tests for batched EM (packing + fit semantics).

Batched EM is the only EM program; every cascade's result must equal
fitting it alone (``fit_em``, its one-cascade call) bit for bit.
"""

import numpy as np
import pytest

from repro.core.events import bin_timestamps
from repro.core.hawkes.basis import DirichletLagBasis, LogBinnedLagBasis
from repro.core.hawkes.batched import (
    BatchedParentStructure,
    PackedCascades,
    fit_em_batched,
)
from repro.core.hawkes.inference import FitResult, Priors, fit_em
from repro.core.hawkes.kernels import segment_ranges
from repro.obs import MetricsRegistry, set_registry

from test_hawkes_kernels import naive_fit_em

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
    # A cascade whose last entry has 16 candidate parents, placed where
    # the half split of the composition test ends a batch.  NumPy sums a
    # reduceat segment as a[0] + pairwise(a[1:]), in blocks of 8, so a
    # trailing 0.0 pad regroups a 16-candidate segment: its bits depend
    # on whether the cascade carries its own pad.
    batch.insert(4, bin_timestamps(60.0 * np.arange(17), np.arange(17) % K,
                                   n_processes=K, delta_t=60.0))
    # Degenerate shapes the corpus actually contains: a lone event and
    # a single-process cascade.
    batch.append(bin_timestamps([30.0], [1], n_processes=K, delta_t=60.0))
    batch.append(bin_timestamps([0.0, 120.0, 180.0], [2, 2, 2],
                                n_processes=K, delta_t=60.0))
    return batch


def naive_result(events, **kwargs):
    """The frozen per-event EM loops' fit of one cascade."""
    params, log_likelihood, n_iterations = naive_fit_em(
        events, MAX_LAG, **kwargs)
    return FitResult(params=params, log_likelihood=log_likelihood,
                     n_iterations=n_iterations)


def assert_fit_equal(got, ref):
    assert np.array_equal(got.params.background, ref.params.background)
    assert np.array_equal(got.params.weights, ref.params.weights)
    assert np.array_equal(got.params.impulse, ref.params.impulse)
    assert got.log_likelihood == ref.log_likelihood
    assert got.n_iterations == ref.n_iterations


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


class TestFitEmBatched:
    def test_fixed_iterations_near_bit_identical(self, events_batch):
        # tol=0 removes early stopping: every cascade runs exactly
        # max_iterations sweeps, and each is bit-identical to the frozen
        # per-event EM loops.
        basis = LogBinnedLagBasis(MAX_LAG)
        batch = fit_em_batched(events_batch, MAX_LAG, basis=basis,
                               max_iterations=20, tol=0.0)
        for i, ev in enumerate(events_batch):
            assert_fit_equal(batch.fit_result(i), naive_result(
                ev, basis=basis, max_iterations=20, tol=0.0))
        assert np.all(batch.n_iterations == 20)

    def test_default_tol_matches_per_url(self, events_batch):
        basis = LogBinnedLagBasis(MAX_LAG)
        batch = fit_em_batched(events_batch, MAX_LAG, basis=basis)
        for i, ev in enumerate(events_batch):
            assert_fit_equal(batch.fit_result(i),
                             fit_em(ev, MAX_LAG, basis=basis))

    def test_batch_composition_is_bit_identical(self, events_batch):
        # Cascades never interact inside a batch, so any split of the
        # same cascades produces the same bits.
        basis = LogBinnedLagBasis(MAX_LAG)
        full = fit_em_batched(events_batch, MAX_LAG, basis=basis)
        half = len(events_batch) // 2
        first = fit_em_batched(events_batch[:half], MAX_LAG, basis=basis)
        rest = fit_em_batched(events_batch[half:], MAX_LAG, basis=basis)
        merged_w = np.concatenate([first.weights, rest.weights])
        merged_bg = np.concatenate([first.background, rest.background])
        merged_ll = np.concatenate([first.log_likelihood,
                                    rest.log_likelihood])
        assert np.array_equal(full.weights, merged_w)
        assert np.array_equal(full.background, merged_bg)
        assert np.array_equal(full.log_likelihood, merged_ll)
        assert np.array_equal(
            full.n_iterations,
            np.concatenate([first.n_iterations, rest.n_iterations]))
        assert np.array_equal(full.bucket_pmf, np.concatenate(
            [first.bucket_pmf, rest.bucket_pmf]))

    def test_singleton_batch_matches_fit_em(self):
        ev = bin_timestamps([0.0, 70.0, 200.0, 260.0], [0, 1, 0, 2],
                            n_processes=K, delta_t=60.0)
        basis = LogBinnedLagBasis(MAX_LAG)
        batch = fit_em_batched([ev], MAX_LAG, basis=basis)
        assert_fit_equal(batch.fit_result(0), naive_result(ev, basis=basis))

    @pytest.mark.parametrize("basis_name", ["log-binned", "dirichlet"])
    def test_bit_identical_to_naive_em_with_priors(self, events_batch,
                                                   basis_name):
        basis = (LogBinnedLagBasis(MAX_LAG, 6) if basis_name == "log-binned"
                 else DirichletLagBasis(MAX_LAG))
        priors = Priors(background_rate=50.0, weight_rate=4.0,
                        impulse_concentration=2.0)
        batch = fit_em_batched(events_batch, MAX_LAG, basis=basis,
                               priors=priors, max_iterations=30)
        for i, ev in enumerate(events_batch):
            assert_fit_equal(batch.fit_result(i), naive_result(
                ev, basis=basis, priors=priors, max_iterations=30))

    def test_metrics_observe_each_cascade(self, events_batch):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            batch = fit_em_batched(events_batch, MAX_LAG)
        finally:
            set_registry(previous)
        families = registry.snapshot()["metrics"]

        def samples(name):
            return families[name]["samples"]

        (total,) = samples("repro_fit_total")
        assert total["labels"] == {"method": "em"}
        assert total["value"] == len(events_batch)
        (iterations,) = samples("repro_fit_em_iterations")
        assert iterations["count"] == len(events_batch)
        assert iterations["sum"] == batch.n_iterations.sum()
        (deltas,) = samples("repro_fit_em_convergence_delta")
        # A cascade stopped after one sweep has no finite delta.
        assert deltas["count"] == int((batch.n_iterations > 1).sum())

    def test_fit_result_expands_valid_params(self, events_batch):
        batch = fit_em_batched(events_batch, MAX_LAG)
        result = batch.fit_result(0)
        k = events_batch[0].n_processes
        assert result.params.background.shape == (k,)
        assert result.params.weights.shape == (k, k)
        assert result.params.impulse.shape == (k, k, MAX_LAG)
        np.testing.assert_allclose(result.params.impulse.sum(axis=2), 1.0)
        assert np.isfinite(result.log_likelihood)

    def test_basis_max_lag_mismatch_rejected(self, events_batch):
        with pytest.raises(ValueError):
            fit_em_batched(events_batch, MAX_LAG,
                           basis=LogBinnedLagBasis(MAX_LAG + 1))

    def test_pmfs_stay_normalized(self, events_batch):
        batch = fit_em_batched(events_batch, MAX_LAG)
        np.testing.assert_allclose(batch.bucket_pmf.sum(axis=3), 1.0)
        assert np.all(batch.background > 0)
        assert np.all(batch.weights >= 0)
        assert np.all(batch.n_iterations >= 1)
