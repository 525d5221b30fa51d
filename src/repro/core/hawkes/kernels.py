"""Flat, segment-wise NumPy kernels for the discrete Hawkes core.

Every hot path of the statistical core — candidate-parent enumeration,
candidate values, exposure and rate evaluation — is expressed as a flat
array program over *segments*: per-event candidate lists are
concatenated into single arrays partitioned by an ``offsets`` vector,
in the spirit of the vectorized conjugate updates of Linderman & Adams.
This module holds the shared pieces: :func:`segment_ranges`, the
bucket-space closed forms of :class:`BucketKernels` (the base of
:class:`~.batched.BatchedParentStructure`, which the fitters and the
log-likelihood run on) and the rate-evaluation :class:`QueryStructure`
of :func:`~.model.expected_rate` and :mod:`.diagnostics`, so no caller
pays for a per-event Python loop.

Bit-compatibility contract
--------------------------
The Gibbs sampler (:func:`~.batched.fit_gibbs_batched`) runs its sweeps
in bucket space on the closed forms of :class:`BucketKernels`:

* candidate values gather ``buckets / bucket_size`` (the very division
  :meth:`LagBasis.expand` performs per lag) and multiply left-to-right
  as ``count * weight * pmf``, so they are bit-identical to the per-lag
  gather;
* the exposure uses the closed-form truncation CDF (cumulated buckets
  below the cap bucket plus the covered fraction of the cap bucket),
  which associates differently from the per-lag cumsum and agrees with
  it to rounding (about 1e-16 relative);
* scatter-adds use :func:`np.ufunc.at` / ``np.bincount``, which
  accumulate sequentially in element order (a plain ``sum()`` would
  re-associate via pairwise summation and drift in the last bits).

The sampler keeps seed-determinism — same seed, same result — but its
*draw stream* differs from the historical sampler: one bulk uniform
pass replaces per-event ``multinomial`` calls (the sampled law is
unchanged; a multinomial is a sum of i.i.d. categorical draws).  The
likelihood of its posterior means never expands the PMF to ``(K, K,
max_lag)`` either: its lag CDF at each entry's truncation point is one
sequential pass over the lags
(:meth:`~.batched.BatchedParentStructure.lag_cdf_rows`), the order of
the per-lag ``np.cumsum``, so it equals the frozen
``naive_log_likelihood`` of ``tests/test_hawkes_kernels.py`` bit for
bit.

Nothing is cached on :class:`~repro.core.events.DiscreteEvents`: each
fit or likelihood builds one packed structure per batch, and the
layouts derived from it die with it.
"""

from __future__ import annotations

import numpy as np

from ..events import DiscreteEvents
from .basis import LagBasis

#: Scatter-adds over (pair, K) row blocks are chunked to bound transient
#: memory on dense query grids (e.g. diagnostics over every bin).
_SCATTER_CHUNK = 1 << 18


def segment_ranges(starts: np.ndarray, stops: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the integer ranges ``[starts[i], stops[i])``.

    Returns ``(flat, sizes, offsets)`` where ``flat`` holds every range
    back to back, ``sizes[i] = stops[i] - starts[i]``, and ``offsets``
    (length ``len(starts) + 1``) partitions ``flat`` into segments.
    Built from ``repeat``/``cumsum`` only — no Python loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(stops, dtype=np.int64) - starts
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    flat = (np.arange(total, dtype=np.int64)
            + np.repeat(starts - offsets[:-1], sizes))
    return flat, sizes, offsets


class BucketKernels:
    """Bucket-space closed forms over a flat candidate layout.

    The one home of the bucket-level kernels of batched Gibbs
    (:class:`~.batched.BatchedParentStructure`).  Parameters are
    addressed through raveled indices, so the same code serves a single
    cascade (``weights (K, K)``, ``buckets (K, K, B)``) and a batch with
    a leading cascade axis (``(C, K, K)``, ``(C, K, K, B)``).  A *row*
    is one ``(cascade, source)`` pair: ``row = cascade * K + source``.

    Subclasses set ``flat_cnt``, ``flat_bucket``, ``_pair`` (raveled
    ``(.., K, K)`` cell of each candidate), ``offsets`` and ``sizes``,
    then call :meth:`_init_bucket_space`.
    """

    def _init_bucket_space(self, basis: LagBasis, entry_row: np.ndarray,
                           entry_cnt: np.ndarray, capped: np.ndarray,
                           pair_shape: tuple[int, ...]) -> None:
        """Precompute the gather indices of the bucket-space kernels.

        ``entry_row``/``entry_cnt`` give each entry's row and count and
        ``capped`` its post-event window ``min(bins left, max_lag)``;
        ``pair_shape`` is the ``(.., K, K)`` shape of the weights.
        """
        self._pair_shape = tuple(pair_shape)
        self._bucket_index = self._pair * basis.n_buckets + self.flat_bucket
        self._flat_bucket_size = basis.bucket_sizes[self.flat_bucket]
        # -- truncated-exposure precomputation (window-end effects) ------
        valid = capped > 0
        self.v_row = entry_row[valid]
        self.v_cnt = entry_cnt[valid]
        #: Post-event window of each valid entry, in bins.
        self.v_cap = cap = capped[valid]
        self.v_bucket = basis.bucket_of[cap - 1]
        lags_below = np.concatenate(
            [[0], np.cumsum(basis.bucket_sizes)])[self.v_bucket]
        # Fraction of the cap bucket's mass inside the truncation window.
        self.v_frac = ((cap - lags_below)
                       / basis.bucket_sizes[self.v_bucket])
        # Raveled (row, destination) exposure cell of every CDF value.
        k = pair_shape[-1]
        self._v_cell = (self.v_row[:, None] * k
                        + np.arange(k, dtype=np.int64)).reshape(-1)

    def candidate_values(self, weights: np.ndarray,
                         buckets: np.ndarray) -> np.ndarray:
        """``count * W[src, dst] * pmf[src, dst, lag - 1]`` for every
        candidate, as flat gathers from the bucket PMFs.

        The per-lag PMF value is the bucket probability spread uniformly
        over the bucket's lags.  Each gathered bucket value is divided by
        its bucket's size — the very division :meth:`LagBasis.expand`
        performs per lag — so the values are bit-identical to gathering
        from the expanded PMF.  Gathering first keeps the work O(F) in
        the candidates, not O(C K^2 B) in the parameter cells.
        """
        if not len(self._pair):
            return np.empty(0, dtype=np.float64)
        return (self.flat_cnt * weights.reshape(-1)[self._pair]
                * (buckets.reshape(-1)[self._bucket_index]
                   / self._flat_bucket_size))

    def truncation_cdf_rows(self, buckets: np.ndarray) -> np.ndarray:
        """Lag-CDF rows ``cdf[row, :, cap - 1]`` per valid entry.

        ``(n_valid, K)``: full buckets below the cap bucket plus the
        covered fraction of the cap bucket — the bucket-level closed
        form of the per-lag cumsum.
        """
        k, n_buckets = buckets.shape[-2:]
        rows = buckets.reshape(-1, k, n_buckets)
        below = np.zeros_like(rows)
        np.cumsum(rows[..., :-1], axis=2, out=below[..., 1:])
        return (below[self.v_row, :, self.v_bucket]
                + self.v_frac[:, None] * rows[self.v_row, :, self.v_bucket])

    def bucket_exposure(self, buckets: np.ndarray) -> np.ndarray:
        """Truncated exposure ``E[.., i, j]`` from the bucket PMFs."""
        return self.exposure_from_cdf(self.truncation_cdf_rows(buckets))

    def exposure_from_cdf(self, cdf_rows: np.ndarray) -> np.ndarray:
        """Truncated exposure ``E[.., i, j]`` of the ``(.., K, K)``
        weights, given the lag-CDF row ``(n_valid, K)`` of every valid
        entry.

        One ``np.bincount`` over the raveled cells: it adds each cell's
        terms in entry order starting from zero, the summation order of
        ``np.add.at`` over the rows.
        """
        shape = self._pair_shape
        if not len(self.v_row):
            return np.zeros(shape)
        terms = self.v_cnt[:, None] * cdf_rows
        return np.bincount(self._v_cell, weights=terms.reshape(-1),
                           minlength=int(np.prod(shape))).reshape(shape)


class QueryStructure:
    """Flat ``(query bin, source event)`` pairs within ``max_lag``.

    Segment ``q`` lists every event entry strictly before query bin
    ``q`` and at most ``max_lag`` bins away.
    """

    def __init__(self, events: DiscreteEvents, query_bins: np.ndarray,
                 max_lag: int) -> None:
        ev_bins = events.bins
        lo = np.searchsorted(ev_bins, query_bins - max_lag, side="left")
        hi = np.searchsorted(ev_bins, query_bins, side="left")
        flat_idx, sizes, _ = segment_ranges(lo, hi)
        self.n_queries = len(query_bins)
        self.q_index = np.repeat(np.arange(len(query_bins), dtype=np.int64),
                                 sizes)
        self.src = events.processes[flat_idx].astype(np.int64)
        self.lag = (np.repeat(query_bins, sizes)
                    - ev_bins[flat_idx]).astype(np.int64)
        self.cnt = events.counts[flat_idx].astype(np.float64)

    def add_rates(self, rates: np.ndarray, weights: np.ndarray,
                  impulse: np.ndarray) -> None:
        """Scatter-add each pair's ``count * (W[src, :] * impulse[src,
        :, lag - 1])`` row onto ``rates[q]``, in (query, event) order.

        The product is the branching kernel ``W[:, :, None] * impulse``
        evaluated at the gathered cells only, so the rows equal gathers
        from the full ``(K, K, D)`` kernel bit for bit.  Chunked so the
        transient row block stays bounded on dense query grids; chunks
        run in order, preserving the sequential accumulation contract.
        """
        for start in range(0, len(self.src), _SCATTER_CHUNK):
            sl = slice(start, start + _SCATTER_CHUNK)
            src = self.src[sl]
            # In place, so at most two (pairs, K) blocks are alive; a
            # product of two floats does not depend on their order.
            rows = impulse[src, :, self.lag[sl] - 1]
            rows *= weights[src, :]
            np.multiply(self.cnt[sl, None], rows, out=rows)
            np.add.at(rates, self.q_index[sl], rows)
