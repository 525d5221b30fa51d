"""Flat, segment-wise NumPy kernels for the discrete Hawkes core.

Every hot path of the statistical core — candidate-parent enumeration,
candidate values, exposure, rate evaluation, and the exact
log-likelihood — is expressed here as a flat array program over
*segments*: per-event candidate lists are concatenated into single
arrays partitioned by an ``offsets`` vector, in the spirit of the
vectorized conjugate updates of Linderman & Adams.  The fitters in
:mod:`.inference` and :mod:`.batched`, the likelihood in
:mod:`.model`, and the residual checks in :mod:`.diagnostics` all
share these kernels, so no caller pays for a per-event Python loop.

Bit-compatibility contract
--------------------------
EM (:func:`~.batched.fit_em_batched`, and :func:`~.inference.fit_em`,
its one-cascade call) is required to produce *bit-identical* results to
the historical per-event loops (the frozen ``naive_fit_em`` in
``tests/test_hawkes_kernels.py``), so every kernel it uses preserves
the exact floating-point evaluation and accumulation order of those
loops: per-candidate products multiply left-to-right as ``count *
weight * pmf``, and scatter-adds use :func:`np.ufunc.at` /
``np.bincount`` / ``np.cumsum``, all of which accumulate sequentially
in element order (a plain ``sum()`` would re-associate via pairwise
summation and drift in the last bits).  EM never expands the PMF to
``(K, K, max_lag)``: candidate values gather ``buckets / bucket_size``
(the very division :meth:`LagBasis.expand` performs per lag), and the
lag CDF at each entry's truncation point is one sequential pass over
the lags (:meth:`~.batched.BatchedParentStructure.lag_cdf_rows`), the
order of the per-lag ``np.cumsum``.

The Gibbs sampler (:func:`~.batched.fit_gibbs_batched`) runs its sweeps
in bucket space on the closed forms of :class:`BucketKernels`:

* candidate values are the same bucket gathers as EM's, so they are
  bit-identical to the per-lag gather;
* the exposure uses the closed-form truncation CDF (cumulated buckets
  below the cap bucket plus the covered fraction of the cap bucket),
  which associates differently from the per-lag cumsum and agrees with
  it to rounding (about 1e-16 relative).

The sampler keeps seed-determinism — same seed, same result — but its
*draw stream* differs from the historical sampler: one bulk uniform
pass replaces per-event ``multinomial`` calls (the sampled law is
unchanged; a multinomial is a sum of i.i.d. categorical draws).

Caching
-------
:func:`get_parent_structure` memoizes the :class:`ParentStructure` on
the (immutable) :class:`~repro.core.events.DiscreteEvents` instance,
keyed by basis content, and :func:`get_query_structure` does the same
for the default rate-evaluation grid, so the likelihood and the
diagnostics reuse one build per events object; batched fits build one
packed structure per batch instead.  The cache dies with the events
object (and is dropped from pickles by ``DiscreteEvents.__getstate__``),
so corpora of transient per-URL matrices cannot leak or bloat worker
payloads.
"""

from __future__ import annotations

import numpy as np

from ..events import DiscreteEvents
from .basis import LagBasis

#: Attribute under which per-events kernel caches are stored.  The
#: events dataclass is frozen, so writes go through object.__setattr__;
#: DiscreteEvents.__getstate__ drops the attribute from pickles.
_CACHE_ATTR = "_hawkes_kernel_cache"

#: Scatter-adds over (pair, K) row blocks are chunked to bound transient
#: memory on dense query grids (e.g. diagnostics over every bin).
_SCATTER_CHUNK = 1 << 18


def _events_cache(events: DiscreteEvents) -> dict:
    cache = getattr(events, _CACHE_ATTR, None)
    if cache is None:
        cache = {}
        object.__setattr__(events, _CACHE_ATTR, cache)
    return cache


def _basis_key(basis: LagBasis) -> tuple:
    """Content key: two bases with equal mappings share structures."""
    return (basis.max_lag, basis.bucket_of.tobytes())


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


def sequential_row_sum(rows: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Sum ``rows`` onto ``init`` in strict top-to-bottom order.

    Equivalent to ``acc = init.copy(); for row in rows: acc += row`` —
    the associativity a reference accumulation loop uses — via a
    column-wise ``cumsum``.
    """
    if not len(rows):
        return init.copy()
    stacked = np.concatenate([init[None, :], rows], axis=0)
    return np.cumsum(stacked, axis=0)[-1]


class BucketKernels:
    """Bucket-space closed forms over a flat candidate layout.

    The one home of the bucket-level kernels shared by batched Gibbs
    and batched EM (:class:`~.batched.BatchedParentStructure`); the
    per-URL :class:`ParentStructure` carries them too.  Parameters are
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


class ParentStructure(BucketKernels):
    """Flat candidate-parent arrays for each event entry.

    For entry ``m`` (bin ``t``, process ``k``, count ``c``) the
    candidate parents are every earlier entry within ``max_lag`` bins.
    Candidates of all entries are stored concatenated; segment ``m``
    occupies ``flat_*[offsets[m]:offsets[m + 1]]``.
    """

    def __init__(self, events: DiscreteEvents, basis: LagBasis) -> None:
        self.events = events
        self.basis = basis
        ev_bins = events.bins
        lo = np.searchsorted(ev_bins, ev_bins - basis.max_lag, side="left")
        hi = np.searchsorted(ev_bins, ev_bins, side="left")
        flat_idx, sizes, offsets = segment_ranges(lo, hi)
        self.sizes = sizes
        self.offsets = offsets
        self.flat_src = events.processes[flat_idx].astype(np.int64)
        self.flat_lag = (np.repeat(ev_bins, sizes)
                         - ev_bins[flat_idx]).astype(np.int64)
        self.flat_cnt = events.counts[flat_idx].astype(np.float64)
        self.flat_bucket = basis.bucket_of[self.flat_lag - 1]
        self.flat_dst = np.repeat(events.processes.astype(np.int64), sizes)
        # Precomputed gather index into raveled (K, K) arrays: candidate
        # values become flat gathers + products.
        k = events.n_processes
        self._pair = self.flat_src * k + self.flat_dst
        self.dst = events.processes.astype(np.int64)
        # Exposure rows: each entry parents on its own process's row.
        remaining = events.n_bins - 1 - ev_bins
        self._init_bucket_space(
            basis, self.dst, events.counts.astype(np.float64),
            np.minimum(remaining, basis.max_lag), (k, k))

    # -- per-event views (introspection and tests; not on hot paths) ------

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        if not len(self.events):
            return []
        return np.split(flat, self.offsets[1:-1])

    @property
    def cand_src(self) -> list[np.ndarray]:
        return self._split(self.flat_src)

    @property
    def cand_lag(self) -> list[np.ndarray]:
        return self._split(self.flat_lag)

    @property
    def cand_cnt(self) -> list[np.ndarray]:
        return self._split(self.flat_cnt)

    @property
    def cand_bucket(self) -> list[np.ndarray]:
        return self._split(self.flat_bucket)


def get_parent_structure(events: DiscreteEvents,
                         basis: LagBasis) -> ParentStructure:
    """Memoized :class:`ParentStructure` for ``(events, basis)``."""
    cache = _events_cache(events)
    key = ("parents", _basis_key(basis))
    structure = cache.get(key)
    if structure is None:
        structure = ParentStructure(events, basis)
        cache[key] = structure
    return structure


def truncated_kernel_mass(events: DiscreteEvents, weights: np.ndarray,
                          lag_cdf: np.ndarray, max_lag: int,
                          init: np.ndarray) -> np.ndarray:
    """``init + sum_m count_m * W[src_m, :] * cdf[src_m, :, cap_m - 1]``
    accumulated in event order (the rate-integral kernel).
    """
    remaining = events.n_bins - 1 - events.bins
    capped = np.minimum(remaining, max_lag)
    valid = capped > 0
    if not valid.any():
        return init.copy()
    src = events.processes[valid].astype(np.int64)
    rows = (events.counts[valid][:, None]
            * weights[src, :] * lag_cdf[src, :, capped[valid] - 1])
    return sequential_row_sum(rows, init)


class QueryStructure:
    """Flat ``(query bin, source event)`` pairs within ``max_lag``.

    The rate-evaluation analogue of :class:`ParentStructure`: segment
    ``q`` lists every event entry strictly before query bin ``q`` and at
    most ``max_lag`` bins away.
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


def unique_bins(events: DiscreteEvents) -> np.ndarray:
    """Memoized ``np.unique(events.bins)``."""
    cache = _events_cache(events)
    uniq = cache.get("unique_bins")
    if uniq is None:
        uniq = np.unique(events.bins)
        cache["unique_bins"] = uniq
    return uniq


def get_query_structure(events: DiscreteEvents,
                        max_lag: int) -> QueryStructure:
    """Memoized :class:`QueryStructure` over the occupied-bin grid."""
    cache = _events_cache(events)
    key = ("query", int(max_lag))
    structure = cache.get(key)
    if structure is None:
        structure = QueryStructure(events, unique_bins(events), max_lag)
        cache[key] = structure
    return structure

