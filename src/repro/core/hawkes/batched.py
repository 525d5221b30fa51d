"""Batched fits: a whole corpus chunk of cascades as one array program.

With thousands of *tiny* cascades the cost of a per-URL fit is NumPy
call dispatch — hundreds of kernel launches per URL on arrays with tens
of elements.  This module removes the corpus loop itself: a batch of
per-URL :class:`~repro.core.events.DiscreteEvents` is packed into one
flat segmented layout with a leading cascade axis, and every phase of a
sweep runs across the entire batch in single NumPy calls.
:func:`fit_gibbs_batched` is the package's only Hawkes fitter
(:func:`~.inference.fit_gibbs` is its one-cascade call).

Packing
-------
Cascades are laid end to end on one shared global bin axis with a
``max_lag`` guard gap between consecutive cascades
(:class:`PackedCascades`).  One two-``searchsorted`` candidate
enumeration (every earlier entry within ``max_lag`` bins) then runs
over the packed ``bins`` array, and the guard gap guarantees no
candidate parent ever crosses a cascade boundary: the nearest event of
the previous cascade is always more than ``max_lag`` bins away.  Per-pair
state gains a leading cascade axis — ``background (C, K)``, ``weights
(C, K, K)``, bucket PMFs ``(C, K, K, B)`` — and all scatters/gathers go
through precomputed raveled indices that include the cascade.  The
bucket-space closed forms (candidate values, truncation CDF, exposure)
live in :class:`~.kernels.BucketKernels`.

Equivalence contract
--------------------
A batched fit is *bit-identical to fitting each URL alone*, for every
batch composition, chunk size and worker count: no reduction ever
associates values of two cascades.  Each cascade keeps its own
generator and draws in the per-URL order, and every reduction either
stays per cascade (the candidate-mass cumsum and its ``searchsorted``,
the posterior means of background and weights) or sums in the same
sequential order as the per-URL sweep (integer attribution tallies,
the exposure, the running bucket sum).  The frozen per-URL sweep in
``tests/gibbs_reference.py`` pins this.  The likelihood of the
posterior means is the one likelihood program below, run once on the
sweeps' structure.

Likelihood
----------
:meth:`BatchedParentStructure.log_likelihood` is the only Hawkes
log-likelihood of the package: Gibbs scores its posterior means with
it once, and :func:`~.model.discrete_log_likelihood` is its
one-cascade call.  It sums each entry's rate from its background, each
cascade's log terms in entry order and its rate integral per process
from ``background * n_bins``, the association of the frozen
``naive_log_likelihood`` of ``tests/test_hawkes_kernels.py``.  The
rate integral reads the exact lag CDF, one sequential pass over the
lags in the order of the per-lag ``np.cumsum``
(:meth:`BatchedParentStructure.lag_cdf_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from time import perf_counter
from typing import Sequence

import numpy as np

from ...obs import DEFAULT_COUNT_BUCKETS, get_registry
from ..events import DiscreteEvents
from .basis import LagBasis, LogBinnedLagBasis
from .inference import FitResult, Priors
from .kernels import BucketKernels, segment_ranges
from .model import HawkesParams


class PackedCascades:
    """``C`` per-URL event matrices packed onto one global bin axis.

    Cascade ``c`` occupies global bins ``[bin_offsets[c],
    bin_offsets[c] + n_bins[c])``; consecutive cascades are separated
    by a ``max_lag``-bin guard gap so lag-windowed candidate searches
    never reach into a neighbour.  Entries stay sorted by global bin
    (cascade-major, bin-minor) and segment ``c`` of every per-entry
    array spans ``entry_offsets[c]:entry_offsets[c + 1]``.
    """

    def __init__(self, events_list: Sequence[DiscreteEvents],
                 max_lag: int) -> None:
        if not events_list:
            raise ValueError("need at least one cascade to pack")
        k = events_list[0].n_processes
        if any(ev.n_processes != k for ev in events_list):
            raise ValueError("all packed cascades must share n_processes")
        self.max_lag = int(max_lag)
        self.n_cascades = len(events_list)
        self.n_processes = k
        self.n_bins = np.array([ev.n_bins for ev in events_list],
                               dtype=np.int64)
        entry_counts = np.array([len(ev) for ev in events_list],
                                dtype=np.int64)
        self.entry_offsets = np.zeros(self.n_cascades + 1, dtype=np.int64)
        np.cumsum(entry_counts, out=self.entry_offsets[1:])
        # Guard gap: offset step T_c + max_lag puts the last bin of
        # cascade c at least max_lag + 1 bins before the first bin of
        # cascade c + 1, so a candidate window [t - max_lag, t) can
        # never span cascades.
        self.bin_offsets = np.zeros(self.n_cascades, dtype=np.int64)
        if self.n_cascades > 1:
            np.cumsum(self.n_bins[:-1] + self.max_lag,
                      out=self.bin_offsets[1:])
        self.cascade_of = np.repeat(
            np.arange(self.n_cascades, dtype=np.int64), entry_counts)
        self.bins = (np.concatenate(
            [ev.bins for ev in events_list]).astype(np.int64)
            + self.bin_offsets[self.cascade_of])
        self.processes = np.concatenate(
            [ev.processes for ev in events_list]).astype(np.int64)
        self.counts = np.concatenate(
            [ev.counts for ev in events_list]).astype(np.float64)

    def __len__(self) -> int:
        return len(self.bins)


class BatchedParentStructure(BucketKernels):
    """Candidate-parent arrays for every entry of a packed batch.

    For entry ``m`` (bin ``t``, process ``k``, count ``c``) the
    candidate parents are every earlier entry of its cascade within
    ``max_lag`` bins; candidates of all entries are stored concatenated
    and segment ``m`` occupies ``flat_*[offsets[m]:offsets[m + 1]]``.
    One candidate enumeration over the packed global bins covers every
    cascade, and the precomputed gather indices target raveled
    ``(C, K, K)`` / ``(C, K, K, B)`` parameter arrays so per-sweep
    work is flat gathers, products, and sequential scatter-adds — for
    the whole batch at once.  The bucket-space kernels (candidate
    values, truncation CDF, exposure) are those of
    :class:`~.kernels.BucketKernels`; the likelihood kernels below
    (exact lag CDF, entry rates, rate integrals, log-likelihood) build
    their layouts on first use, so Gibbs sweeps never hold them.
    """

    def __init__(self, packed: PackedCascades, basis: LagBasis) -> None:
        self.packed = packed
        self.basis = basis
        bins = packed.bins
        lo = np.searchsorted(bins, bins - basis.max_lag, side="left")
        hi = np.searchsorted(bins, bins, side="left")
        flat_idx, sizes, offsets = segment_ranges(lo, hi)
        self.sizes = sizes
        self.offsets = offsets
        k = packed.n_processes
        self.flat_src = packed.processes[flat_idx]
        self.flat_lag = np.repeat(bins, sizes) - bins[flat_idx]
        self.flat_cnt = packed.counts[flat_idx]
        self.flat_bucket = basis.bucket_of[self.flat_lag - 1]
        self.flat_dst = np.repeat(packed.processes, sizes)
        self.flat_cascade = np.repeat(packed.cascade_of, sizes)
        self._pair = (self.flat_cascade * k + self.flat_src) * k \
            + self.flat_dst
        #: Raveled (C, K) cell of each entry: cascade * K + process.
        self.entry_cell = packed.cascade_of * k + packed.processes
        local_bins = packed.bins - packed.bin_offsets[packed.cascade_of]
        remaining = packed.n_bins[packed.cascade_of] - 1 - local_bins
        self._init_bucket_space(
            basis, self.entry_cell, packed.counts,
            np.minimum(remaining, basis.max_lag),
            (packed.n_cascades, k, k))
        self.v_cascade = self.v_row // k

    # -- likelihood kernels ------------------------------------------------

    @cached_property
    def _cdf_plan(self) -> dict:
        """Layout of :meth:`lag_cdf_rows`.

        ``rows`` are the rows that own a valid entry.  Entries at the
        largest cap (``late``) read the accumulator after the pass.
        Every other entry (``early``) replays its cap's bucket from the
        accumulator as that bucket began: sorted by how many of the
        bucket's lags its cap covers, descending, replay step ``j``
        advances a prefix of them, and ``replay`` run-length encodes
        the prefix lengths as ``(length, steps)``.
        """
        basis = self.basis
        rows, row_of = np.unique(self.v_row, return_inverse=True)
        max_cap = int(self.v_cap.max(initial=0))
        early = np.flatnonzero(self.v_cap < max_cap)
        bucket = basis.bucket_of[self.v_cap[early] - 1]
        bucket_start = np.cumsum(basis.bucket_sizes) - basis.bucket_sizes
        covered = self.v_cap[early] - bucket_start[bucket]
        order = np.argsort(-covered, kind="stable")
        early, bucket, covered = early[order], bucket[order], covered[order]
        lengths = np.searchsorted(
            -covered, -np.arange(1, covered.max(initial=0) + 1),
            side="right")
        late = np.flatnonzero(self.v_cap == max_cap)
        return {"rows": rows, "max_cap": max_cap,
                "late": late, "late_rows": row_of[late],
                "early": early, "early_rows": row_of[early],
                "early_bucket": bucket,
                "replay": [(length, len(list(steps))) for length, steps
                           in groupby(lengths.tolist())]}

    def lag_cdf_rows(self, buckets: np.ndarray) -> np.ndarray:
        """Lag-CDF rows ``cdf[row, :, cap - 1]`` per valid entry,
        ``(n_valid, K)``, bit for bit ``np.cumsum(basis.expand(buckets),
        axis=-1)`` at each entry's truncation point.

        One sequential pass over the lags below the largest cap adds
        each lag's PMF value (bucket over bucket size, the division of
        :meth:`LagBasis.expand`) onto an accumulator over the rows that
        own a valid entry, keeping the accumulator as each bucket
        begins.  An entry with a smaller cap repeats the same additions
        from its bucket's start value up to its cap, all such entries
        at once.  Memory is O(rows x K x buckets), never O(rows x K x
        max_lag).
        """
        k, n_buckets = buckets.shape[-2:]
        plan = self._cdf_plan
        rows = plan["rows"]
        out = np.empty((len(self.v_row), k))
        if not len(rows):
            return out
        per_lag = np.ascontiguousarray(
            (buckets.reshape(-1, k, n_buckets)[rows]
             / self.basis.bucket_sizes).transpose(2, 0, 1))
        acc = np.zeros((len(rows), k))
        starts = np.empty_like(per_lag)
        lag, max_cap = 0, plan["max_cap"]
        for bucket, size in enumerate(self.basis.bucket_sizes.tolist()):
            if lag >= max_cap:
                break
            starts[bucket] = acc
            step = per_lag[bucket]
            for _ in range(min(size, max_cap - lag)):
                np.add(acc, step, out=acc)
            lag += size
        out[plan["late"]] = acc[plan["late_rows"]]
        early_bucket, early_rows = plan["early_bucket"], plan["early_rows"]
        replayed = starts[early_bucket, early_rows]
        step = per_lag[early_bucket, early_rows]
        for length, n_steps in plan["replay"]:
            head, head_step = replayed[:length], step[:length]
            for _ in range(n_steps):
                np.add(head, head_step, out=head)
        out[plan["early"]] = replayed
        return out

    @cached_property
    def _rate_index(self) -> np.ndarray:
        """Entry of each rate term: every entry's background, then every
        candidate in entry order."""
        entries = np.arange(len(self.entry_cell), dtype=np.int64)
        return np.concatenate([entries, np.repeat(entries, self.sizes)])

    def entry_rates(self, background: np.ndarray, weights: np.ndarray,
                    buckets: np.ndarray) -> np.ndarray:
        """Rate ``lambda`` at every entry, ``(n_entries,)``.

        Each entry sums its background, then each candidate's ``count *
        (W * pmf)`` in order — the terms and the order of
        :meth:`~.kernels.QueryStructure.add_rates` at the entry's bin.
        """
        terms = self.flat_cnt * (
            weights.reshape(-1)[self._pair]
            * (buckets.reshape(-1)[self._bucket_index]
               / self._flat_bucket_size))
        return np.bincount(
            self._rate_index,
            weights=np.concatenate([background.reshape(-1)[self.entry_cell],
                                    terms]),
            minlength=len(self.entry_cell))

    @cached_property
    def _integral_cell(self) -> np.ndarray:
        """Raveled ``(C, K)`` cell of each rate-integral term: every
        cell's ``background * n_bins``, then each valid entry's row."""
        n_casc, k = self.packed.n_cascades, self.packed.n_processes
        procs = np.arange(k, dtype=np.int64)
        return np.concatenate([
            np.arange(n_casc * k, dtype=np.int64),
            (self.v_cascade[:, None] * k + procs).reshape(-1)])

    def rate_integrals(self, background: np.ndarray, weights: np.ndarray,
                       cdf_rows: np.ndarray) -> np.ndarray:
        """``sum_t lambda[t, k]`` per cascade and process, ``(C, K)``.

        Per process: ``background * n_bins``, then each valid entry's
        ``(count * W[src, :]) * cdf`` in entry order — its kernel mass
        truncated at the end of the observation window.  ``cdf_rows``
        is :meth:`lag_cdf_rows` of the bucket PMFs.
        """
        k = self.packed.n_processes
        init = background * self.packed.n_bins[:, None]
        rows = (self.v_cnt[:, None] * weights.reshape(-1, k)[self.v_row]
                * cdf_rows)
        cells = np.bincount(
            self._integral_cell,
            weights=np.concatenate([init.reshape(-1), rows.reshape(-1)]),
            minlength=init.size)
        return cells.reshape(init.shape)

    @cached_property
    def _log_factorials(self) -> np.ndarray:
        """``log(s!)`` of every entry's count."""
        from scipy.special import gammaln
        return gammaln(self.packed.counts + 1.0)

    def log_likelihood(self, background: np.ndarray, weights: np.ndarray,
                       buckets: np.ndarray,
                       cdf_rows: np.ndarray) -> np.ndarray:
        """Exact Poisson log-likelihood of every cascade, ``(C,)``.

        ``sum_{t,k} [s log(lambda) - lambda - log(s!)]``: the log terms
        at each cascade's entries (:meth:`entry_rates`), summed in entry
        order, minus its :meth:`rate_integrals` summed over processes;
        bins without events contribute only their ``-lambda``, which
        the integral covers.  A cascade with a non-positive rate at one
        of its entries scores ``-inf``.  ``cdf_rows`` is
        :meth:`lag_cdf_rows` of ``buckets``.
        """
        packed = self.packed
        rates = self.entry_rates(background, weights, buckets)
        positive = rates > 0
        terms = (packed.counts * np.log(np.where(positive, rates, 1.0))
                 - self._log_factorials)
        log_likelihood = (
            np.bincount(packed.cascade_of, weights=terms,
                        minlength=packed.n_cascades)
            - self.rate_integrals(background, weights,
                                  cdf_rows).sum(axis=1))
        log_likelihood[packed.cascade_of[~positive]] = -np.inf
        return log_likelihood


@dataclass(frozen=True)
class BatchedFitResult:
    """Per-cascade posterior means of one batched Gibbs fit.

    Parameters stay stacked (cascade-leading axes) so a corpus driver
    can slice rows without materializing ``C`` expanded ``(K, K, D)``
    impulse arrays; :meth:`fit_result` expands one cascade on demand
    for API parity with :func:`~.inference.fit_gibbs`.
    """

    background: np.ndarray      # (C, K)
    weights: np.ndarray         # (C, K, K)
    bucket_pmf: np.ndarray      # (C, K, K, B)
    log_likelihood: np.ndarray  # (C,)
    n_iterations: int           # sweeps, the same for every cascade
    basis: LagBasis
    #: Kept W draws, (C, n_samples, K, K); n_samples is 0 unless the fit
    #: was asked to keep them.
    weight_samples: np.ndarray

    def __len__(self) -> int:
        return len(self.log_likelihood)

    def fit_result(self, cascade: int) -> FitResult:
        """One cascade's fit as a per-URL :class:`~.inference.FitResult`."""
        params = HawkesParams(
            background=self.background[cascade].copy(),
            weights=self.weights[cascade].copy(),
            impulse=self.basis.expand(self.bucket_pmf[cascade]))
        return FitResult(params=params,
                         log_likelihood=float(self.log_likelihood[cascade]),
                         weight_samples=self.weight_samples[cascade].copy(),
                         n_iterations=self.n_iterations)


def _initial_state(structure: BatchedParentStructure, priors: Priors,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial state of every cascade: prior means, with backgrounds
    raised to half of each process's observed rate."""
    packed = structure.packed
    n_casc, k = packed.n_cascades, packed.n_processes
    totals_per = np.zeros((n_casc, k))
    np.add.at(totals_per.reshape(-1), structure.entry_cell, packed.counts)
    background = np.maximum(
        np.full((n_casc, k), priors.background_shape / priors.background_rate),
        0.5 * totals_per / np.maximum(packed.n_bins, 1)[:, None])
    weights = np.full((n_casc, k, k), priors.weight_shape / priors.weight_rate)
    n_buckets = structure.basis.n_buckets
    buckets = np.full((n_casc, k, k, n_buckets), 1.0 / n_buckets)
    return background, weights, buckets


def _record_batch_metrics(n_cascades: int, iterations: int,
                          total: float, phases: dict[str, float]) -> None:
    """Observe one completed batched fit (pure timing, RNG-free).

    ``repro_fit_total`` counts one fit per cascade.  Every series
    carries a constant ``method="gibbs"`` label, which scrapes and
    dashboards filter on.
    """
    registry = get_registry()
    label = {"method": "gibbs"}
    registry.counter("repro_fit_batch_total",
                     "Completed batched corpus fits.", **label).inc()
    registry.counter("repro_fit_total",
                     "Completed per-URL Hawkes fits.",
                     **label).inc(n_cascades)
    registry.histogram("repro_fit_batch_cascades",
                       "Cascades packed into one batched fit.",
                       edges=DEFAULT_COUNT_BUCKETS,
                       **label).observe(n_cascades)
    registry.histogram("repro_fit_batch_iterations",
                       "Sweeps until the whole batch finished.",
                       edges=DEFAULT_COUNT_BUCKETS,
                       **label).observe(iterations)
    registry.histogram("repro_fit_batch_seconds",
                       "Wall time of one batched fit.",
                       **label).observe(total)
    phase_help = "Kernel wall time per fit phase, summed over sweeps."
    for phase, seconds in phases.items():
        registry.histogram("repro_fit_phase_seconds", phase_help,
                           **label, phase=phase).observe(seconds)


def candidate_counts(events_list: Sequence[DiscreteEvents],
                     max_lag: int) -> np.ndarray:
    """Candidate parents per cascade — the flat length each one adds to
    a packed batch (two ``searchsorted`` calls per cascade)."""
    return np.array([
        int((np.searchsorted(ev.bins, ev.bins, side="left")
             - np.searchsorted(ev.bins, ev.bins - max_lag,
                               side="left")).sum())
        for ev in events_list], dtype=np.int64)


def split_by_candidates(counts: np.ndarray,
                        max_candidates: int) -> list[slice]:
    """Contiguous runs of cascades whose candidate totals stay within
    ``max_candidates``; a cascade above the budget runs alone."""
    runs: list[slice] = []
    start, total = 0, 0
    for stop, count in enumerate(counts.tolist()):
        if stop > start and total + count > max_candidates:
            runs.append(slice(start, stop))
            start, total = stop, 0
        total += count
    if len(counts):
        runs.append(slice(start, len(counts)))
    return runs


def fit_gibbs_batched(events_list: Sequence[DiscreteEvents], max_lag: int,
                      rngs: Sequence[np.random.Generator],
                      basis: LagBasis | None = None,
                      priors: Priors | None = None,
                      n_iterations: int = 120, burn_in: int = 40,
                      keep_samples: bool = True) -> BatchedFitResult:
    """Gibbs sampling over a batch of cascades, one array program per sweep.

    ``result.fit_result(c)`` equals ``fit_gibbs(events_list[c], max_lag,
    rng=rngs[c], ...)`` bit for bit: each cascade draws from its
    own generator in the per-URL order — one uniform block for parent
    attribution, then one Gamma block for background, weights and
    bucket PMFs in each sweep (``gamma(shape, scale)`` is ``scale *
    standard_gamma(shape)``, so one ``standard_gamma`` call over the
    concatenated shapes, scaled afterwards, equals the three ``gamma``
    calls).  Everything that does not touch a generator or associate a
    sum across cascades runs once for the whole batch: candidate values,
    segment masses, attribution tallies (``np.bincount`` of integer
    counts), the exposure (one ``np.bincount``, which sums in the
    sequential order of ``np.add.at``), the Dirichlet normalization
    and the posterior means.  The candidate-mass cumsum and its
    ``searchsorted`` run per cascade over slices of one packed buffer,
    each slice with its own leading zero, because a cumsum across
    cascades would shift the bits of every later cascade.
    """
    if burn_in >= n_iterations:
        raise ValueError("burn_in must be smaller than n_iterations")
    if len(rngs) != len(events_list):
        raise ValueError("need one generator per cascade")
    priors = priors or Priors()
    basis = basis or LogBinnedLagBasis(max_lag)
    if basis.max_lag != max_lag:
        raise ValueError("basis.max_lag must equal max_lag")
    fit_start = perf_counter()
    structure = BatchedParentStructure(
        PackedCascades(events_list, max_lag), basis)
    # The sweeps' draw buffers die with _gibbs_sweeps, before the
    # likelihood builds its layouts on the same structure.
    kept_bg, kept_w, bucket_sum, phases = _gibbs_sweeps(
        structure, priors, rngs, n_iterations, burn_in)
    n_casc, n_kept, k = kept_bg.shape
    # The running bucket sum is np.mean's own axis-0 order; the background
    # and weight means reduce each cascade's draws exactly as fit_gibbs
    # does (np.mean of a lone K = 1 cell sums pairwise, not in order).
    mean_buckets = bucket_sum / n_kept
    mean_buckets /= mean_buckets.sum(axis=3, keepdims=True)
    phase_start = perf_counter()
    mean_bg = np.empty((n_casc, k))
    mean_w = np.empty((n_casc, k, k))
    for c in range(n_casc):
        mean_bg[c] = np.mean(kept_bg[c], axis=0)
        mean_w[c] = np.mean(kept_w[c], axis=0)
    log_likelihood = structure.log_likelihood(
        mean_bg, mean_w, mean_buckets, structure.lag_cdf_rows(mean_buckets))
    phases["likelihood"] = perf_counter() - phase_start
    _record_batch_metrics(n_casc, n_iterations,
                          perf_counter() - fit_start, phases)
    return BatchedFitResult(
        background=mean_bg, weights=mean_w, bucket_pmf=mean_buckets,
        log_likelihood=log_likelihood,
        n_iterations=n_iterations, basis=basis,
        weight_samples=(kept_w if keep_samples
                        else np.empty((n_casc, 0, k, k))))


def _gibbs_sweeps(structure: BatchedParentStructure, priors: Priors,
                  rngs: Sequence[np.random.Generator], n_iterations: int,
                  burn_in: int,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Run every sweep of :func:`fit_gibbs_batched`.

    Returns the kept background ``(C, S, K)`` and weight ``(C, S, K,
    K)`` draws, the running sum of the kept bucket PMFs ``(C, K, K,
    B)`` and the phase timings.
    """
    packed = structure.packed
    n_casc, k = packed.n_cascades, packed.n_processes
    kk, n_buckets = k * k, structure.basis.n_buckets
    background, weights, buckets = _initial_state(structure, priors)

    # -- packed layout: candidates, cumsum blocks and draws per cascade -----
    offsets = structure.offsets
    entry_cell = structure.entry_cell
    cascade_of = packed.cascade_of
    cand_offsets = offsets[packed.entry_offsets]
    # Cascade c's cumsum block starts at cand_offsets[c] + c with its
    # own leading zero; entry m's segment mass is cum[hi] - cum[lo].
    cum = np.zeros(len(structure._pair) + n_casc)
    cum_lo = offsets[:-1] + cascade_of
    cum_hi = offsets[1:] + cascade_of
    draw_entry = np.repeat(np.arange(len(packed), dtype=np.int64),
                           packed.counts.astype(np.int64))
    draw_offsets = np.searchsorted(draw_entry, packed.entry_offsets)
    draw_cell = entry_cell[draw_entry]
    draw_cum_lo = cum_lo[draw_entry]
    draw_lo = offsets[:-1][draw_entry]
    draw_hi = offsets[1:][draw_entry] - 1
    draw_base = cand_offsets[cascade_of[draw_entry]]
    uniforms = np.empty(len(draw_entry))
    chosen = np.empty(len(draw_entry), dtype=np.int64)
    per_cascade = [
        (rngs[c], slice(cand_offsets[c], cand_offsets[c + 1]),
         slice(cand_offsets[c] + c + 1, cand_offsets[c + 1] + c + 1),
         slice(draw_offsets[c], draw_offsets[c + 1]))
        for c in range(n_casc)]
    # Gamma shapes and draws per cascade: [background | W | buckets].
    prior_shapes = np.concatenate([
        np.full(k, priors.background_shape),
        np.full(kk, priors.weight_shape),
        np.full(kk * n_buckets, priors.impulse_concentration)])
    shapes = np.empty((n_casc, len(prior_shapes)))
    gammas = np.empty_like(shapes)
    background_scale = (1.0 / (priors.background_rate
                               + packed.n_bins))[:, None]

    n_kept = n_iterations - burn_in
    kept_bg = np.empty((n_casc, n_kept, k))
    kept_w = np.empty((n_casc, n_kept, k, k))
    bucket_sum = np.zeros_like(buckets)
    attribution_s = updates_s = 0.0
    for sweep in range(n_iterations):
        phase_start = perf_counter()
        # -- parent attribution ----------------------------------------------
        flat_vals = structure.candidate_values(weights, buckets)
        for rng, cands, block, draws in per_cascade:
            np.add.accumulate(flat_vals[cands], out=cum[block])
            rng.random(out=uniforms[draws])
        seg_mass = cum[cum_hi] - cum[cum_lo]
        bg_mass = background.reshape(-1)[entry_cell]
        totals = (bg_mass + seg_mass)[draw_entry]
        draw_bg = bg_mass[draw_entry]
        x = uniforms * totals
        to_background = ((x < draw_bg) | (seg_mass[draw_entry] <= 0)
                         | (totals <= 0))
        targets = cum[draw_cum_lo] + (x - draw_bg)
        for _, _, block, draws in per_cascade:
            chosen[draws] = cum[block].searchsorted(targets[draws],
                                                    side="right")
        # Guard the last-ulp overshoot past the segment's own mass sum.
        parents = np.clip(chosen + draw_base, draw_lo, draw_hi)[
            ~to_background]
        z_bucket = np.bincount(structure._bucket_index[parents],
                               minlength=n_casc * kk * n_buckets)
        z_bucket = z_bucket.reshape(n_casc, kk, n_buckets)
        shapes[:, :k] = np.bincount(draw_cell[to_background],
                                    minlength=n_casc * k).reshape(n_casc, k)
        shapes[:, k:k + kk] = z_bucket.sum(axis=2)
        shapes[:, k + kk:] = z_bucket.reshape(n_casc, -1)
        shapes += prior_shapes
        attribution_s += perf_counter() - phase_start
        # -- conjugate updates ------------------------------------------------
        phase_start = perf_counter()
        for (rng, _, _, _), shape, out in zip(per_cascade, shapes, gammas):
            rng.standard_gamma(shape, out=out)
        exposure = structure.bucket_exposure(buckets)
        background = gammas[:, :k] * background_scale
        weights = (gammas[:, k:k + kk].reshape(n_casc, k, k)
                   * (1.0 / (priors.weight_rate + exposure)))
        # Dirichlet via normalized Gammas.
        buckets = np.maximum(
            gammas[:, k + kk:].reshape(n_casc, k, k, n_buckets), 1e-12)
        buckets /= buckets.sum(axis=3, keepdims=True)
        updates_s += perf_counter() - phase_start
        if sweep >= burn_in:
            kept_bg[:, sweep - burn_in] = background
            kept_w[:, sweep - burn_in] = weights
            bucket_sum += buckets

    return kept_bg, kept_w, bucket_sum, {"attribution": attribution_s,
                                         "updates": updates_s}
