"""Batched EM: fit a whole corpus chunk of cascades as one array program.

:func:`~repro.core.influence.fit_corpus` historically dispatched one
:func:`~.inference.fit_em` per URL.  PR 3 made each of those fits a
flat array program (:mod:`.kernels`), but with thousands of *tiny*
cascades the remaining cost is NumPy call dispatch — hundreds of
kernel launches per URL on arrays with tens of elements.  This module
removes the corpus loop itself: a batch of per-URL
:class:`~repro.core.events.DiscreteEvents` is packed into one flat
segmented layout with a leading cascade axis, and every EM phase —
candidate values, responsibilities, exposures, MAP updates, and the
log-likelihood — runs across the entire batch in single NumPy calls.

Packing
-------
Cascades are laid end to end on one shared global bin axis with a
``max_lag`` guard gap between consecutive cascades
(:class:`PackedCascades`).  The same two-``searchsorted`` candidate
enumeration as :class:`~.kernels.ParentStructure` then runs once over
the packed ``bins`` array, and the guard gap guarantees no candidate
parent ever crosses a cascade boundary: the nearest event of the
previous cascade is always more than ``max_lag`` bins away.  Per-pair
state gains a leading cascade axis — ``background (C, K)``, ``weights
(C, K, K)``, bucket PMFs ``(C, K, K, B)`` — and all scatters/gathers go
through precomputed raveled indices that include the cascade.

Equivalence contract
--------------------
Within one cascade, the E-step reproduces :func:`~.inference.fit_em`'s
floating-point evaluation order exactly (same ``count * weight * pmf``
products, same ``np.add.at``/``reduceat`` accumulation order).  The
exposure and likelihood reductions associate differently: bucket-level
closed forms replace per-lag cumsums over the expanded ``(K, K, D)``
PMF, which would not fit in memory with a cascade axis.  Batched
results therefore match the per-URL EM path to floating-point
*tolerance*, not bit for bit — pinned by
``tests/test_batched_equivalence.py``.  The closed forms (candidate
values, truncation CDF, exposure) live in
:class:`~.kernels.BucketKernels` and are shared with per-URL Gibbs,
which runs every sweep in bucket space; per-URL EM alone keeps the
per-lag kernels.  Cascades never interact, so a cascade's fitted
parameters are bit-identical for every batch composition, worker
count, and chunk size.

Convergence uses per-cascade freeze masks: the iteration a cascade's
relative log-likelihood delta drops below ``tol`` — exactly when
``fit_em`` would break — its parameters and likelihood freeze while
the rest of the batch keeps iterating.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from ...obs import DEFAULT_COUNT_BUCKETS, get_registry
from ..events import DiscreteEvents
from .basis import LagBasis, LogBinnedLagBasis
from .inference import FitResult, Priors
from .kernels import BucketKernels, segment_ranges
from .model import HawkesParams

#: Parameter floor shared with the per-URL MAP updates.
_EPS = 1e-12

#: Below this working-set size, compaction's repacking overhead beats
#: its savings — small batches just finish with freeze masks.
_COMPACT_MIN_CASCADES = 32


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

    The batched analogue of :class:`~.kernels.ParentStructure`: one
    candidate enumeration over the packed global bins covers every
    cascade, and the precomputed gather indices target raveled
    ``(C, K, K)`` / ``(C, K, K, B)`` parameter arrays so per-sweep
    work is flat gathers, products, and sequential scatter-adds — for
    the whole batch at once.  The bucket-space kernels (candidate
    values, truncation CDF, exposure) are those of
    :class:`~.kernels.BucketKernels`, shared with per-URL Gibbs.
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


@dataclass(frozen=True)
class BatchedEMResult:
    """Per-cascade MAP estimates of one batched EM fit.

    Parameters stay stacked (cascade-leading axes) so a corpus driver
    can slice rows without materializing ``C`` expanded ``(K, K, D)``
    impulse arrays; :meth:`fit_result` expands one cascade on demand
    for API parity with :func:`~.inference.fit_em`.
    """

    background: np.ndarray      # (C, K)
    weights: np.ndarray         # (C, K, K)
    bucket_pmf: np.ndarray      # (C, K, K, B)
    log_likelihood: np.ndarray  # (C,)
    n_iterations: np.ndarray    # (C,)
    basis: LagBasis

    def __len__(self) -> int:
        return len(self.log_likelihood)

    def fit_result(self, cascade: int) -> FitResult:
        """One cascade's fit as a :func:`~.inference.fit_em`-style result."""
        params = HawkesParams(
            background=self.background[cascade].copy(),
            weights=self.weights[cascade].copy(),
            impulse=self.basis.expand(self.bucket_pmf[cascade]))
        return FitResult(params=params,
                         log_likelihood=float(self.log_likelihood[cascade]),
                         n_iterations=int(self.n_iterations[cascade]))


def _record_batch_metrics(n_cascades: int, max_iterations: int,
                          total: float, phases: dict[str, float]) -> None:
    """Observe one completed batched fit (pure timing, RNG-free)."""
    registry = get_registry()
    registry.counter("repro_fit_batch_total",
                     "Completed batched EM corpus fits.", method="em").inc()
    registry.counter("repro_fit_total",
                     "Completed per-URL Hawkes fits.",
                     method="em-batched").inc(n_cascades)
    registry.histogram("repro_fit_batch_cascades",
                       "Cascades packed into one batched EM fit.",
                       edges=DEFAULT_COUNT_BUCKETS).observe(n_cascades)
    registry.histogram("repro_fit_batch_iterations",
                       "EM iterations until the whole batch converged.",
                       edges=DEFAULT_COUNT_BUCKETS).observe(max_iterations)
    registry.histogram("repro_fit_batch_seconds",
                       "Wall time of one batched EM fit.").observe(total)
    phase_help = "Kernel wall time per fit phase, summed over sweeps."
    for phase, seconds in phases.items():
        registry.histogram("repro_fit_phase_seconds", phase_help,
                           method="em-batched", phase=phase).observe(seconds)


def fit_em_batched(events_list: Sequence[DiscreteEvents], max_lag: int,
                   basis: LagBasis | None = None,
                   priors: Priors | None = None,
                   max_iterations: int = 200,
                   tol: float = 1e-6) -> BatchedEMResult:
    """Deterministic MAP EM over a batch of cascades, all phases batched.

    Semantically ``[fit_em(ev, max_lag, ...) for ev in events_list]``
    with one array program instead of ``C`` dispatch loops; see the
    module docstring for the (tolerance-level) equivalence contract.
    Each cascade iterates until its own relative log-likelihood delta
    drops below ``tol`` (then freezes) or ``max_iterations`` is hit.

    Converged cascades first freeze (``np.where`` masking), and once
    half the working set is frozen the batch is *compacted*: frozen
    results are flushed to the output arrays and the survivors are
    repacked into a smaller batch.  Cascades never interact, so
    compaction is invisible in the results (bit-identical to never
    compacting); it only stops long-tail cascades from dragging the
    already-converged majority through extra full-batch sweeps.
    """
    priors = priors or Priors()
    basis = basis or LogBinnedLagBasis(max_lag)
    if basis.max_lag != max_lag:
        raise ValueError("basis.max_lag must equal max_lag")
    fit_start = perf_counter()
    work = list(events_list)
    n_total = len(work)
    packed = PackedCascades(work, basis.max_lag)
    structure = BatchedParentStructure(packed, basis)
    n_casc = packed.n_cascades
    k_procs = packed.n_processes
    n_buckets = basis.n_buckets

    # -- initialization (mirrors inference._initial_state per cascade) ---
    totals_per = np.zeros((n_casc, k_procs))
    np.add.at(totals_per.reshape(-1), structure.entry_cell, packed.counts)
    background = np.maximum(
        np.full((n_casc, k_procs),
                priors.background_shape / priors.background_rate),
        0.5 * totals_per / np.maximum(packed.n_bins, 1)[:, None])
    weights = np.full((n_casc, k_procs, k_procs),
                      priors.weight_shape / priors.weight_rate)
    buckets = np.full((n_casc, k_procs, k_procs, n_buckets),
                      1.0 / n_buckets)

    counts = packed.counts
    entry_cell = structure.entry_cell
    cascade_of = packed.cascade_of
    bg_denominator = priors.background_rate + packed.n_bins[:, None]
    log_factorials = gammaln(counts + 1.0)

    # Output arrays at full corpus size; the working set shrinks via
    # compaction and ``orig`` maps working rows back to corpus rows.
    orig = np.arange(n_total)
    out_background = np.empty((n_total, k_procs))
    out_weights = np.empty((n_total, k_procs, k_procs))
    out_buckets = np.empty((n_total, k_procs, k_procs, n_buckets))
    out_ll = np.full(n_total, -np.inf)
    out_iterations = np.zeros(n_total, dtype=np.int64)

    active = np.ones(n_casc, dtype=bool)
    previous_ll = np.full(n_casc, -np.inf)
    final_ll = np.full(n_casc, -np.inf)
    n_iterations = np.zeros(n_casc, dtype=np.int64)
    attribution_s = updates_s = likelihood_s = 0.0
    iterations_run = 0
    for iteration in range(max_iterations):
        if not active.any():
            break
        iterations_run = iteration + 1
        phase_start = perf_counter()
        # -- E-step: responsibilities over the whole batch ----------------
        flat_vals = structure.candidate_values(weights, buckets)
        seg_sums = structure.segment_sums(flat_vals)
        entry_bg = background.reshape(-1)[entry_cell]
        totals = entry_bg + seg_sums
        safe = totals > 0
        denominator = np.where(safe, totals, 1.0)
        bg_resp = np.where(safe, counts * entry_bg / denominator, counts)
        z_background = np.zeros((n_casc, k_procs))
        np.add.at(z_background.reshape(-1), entry_cell, bg_resp)
        z_weight = np.zeros(n_casc * k_procs * k_procs)
        z_bucket = np.zeros(n_casc * k_procs * k_procs * n_buckets)
        if len(flat_vals):
            scale = np.where(safe, counts / denominator, 0.0)
            flat_resp = flat_vals * np.repeat(scale, structure.sizes)
            np.add.at(z_weight, structure._pair, flat_resp)
            np.add.at(z_bucket, structure._bucket_index, flat_resp)
        z_weight = z_weight.reshape(n_casc, k_procs, k_procs)
        z_bucket = z_bucket.reshape(n_casc, k_procs, k_procs, n_buckets)
        attribution_s += perf_counter() - phase_start
        # -- MAP M-step ----------------------------------------------------
        phase_start = perf_counter()
        new_background = np.maximum(
            (priors.background_shape - 1.0 + z_background)
            / bg_denominator, _EPS)
        exposure = structure.bucket_exposure(buckets)
        new_weights = np.maximum(
            (priors.weight_shape - 1.0 + z_weight)
            / (priors.weight_rate + exposure), 0.0)
        concentration = np.maximum(
            priors.impulse_concentration - 1.0 + z_bucket, _EPS)
        new_buckets = concentration / concentration.sum(axis=3,
                                                        keepdims=True)
        updates_s += perf_counter() - phase_start
        # -- log-likelihood of the updated parameters ----------------------
        phase_start = perf_counter()
        vals = structure.candidate_values(new_weights, new_buckets)
        rates = new_background.reshape(-1)[entry_cell] \
            + structure.segment_sums(vals)
        log_terms = np.zeros(n_casc)
        degenerate = np.zeros(n_casc, dtype=bool)
        if len(rates):
            positive = rates > 0
            terms = (counts * np.log(np.where(positive, rates, 1.0))
                     - log_factorials)
            np.add.at(log_terms, cascade_of, terms)
            if not positive.all():
                degenerate[cascade_of[~positive]] = True
        integral = (new_background * packed.n_bins[:, None]).sum(axis=1)
        if len(structure.v_cascade):
            cdf_rows = structure.truncation_cdf_rows(new_buckets)
            weight_rows = new_weights.reshape(-1, k_procs)[
                structure.v_row]
            np.add.at(integral, structure.v_cascade,
                      structure.v_cnt
                      * (cdf_rows * weight_rows).sum(axis=1))
        current_ll = log_terms - integral
        current_ll[degenerate] = -np.inf
        likelihood_s += perf_counter() - phase_start
        # -- adopt updates for active cascades; freeze the converged -------
        background = np.where(active[:, None], new_background, background)
        weights = np.where(active[:, None, None], new_weights, weights)
        buckets = np.where(active[:, None, None, None], new_buckets,
                           buckets)
        final_ll = np.where(active, current_ll, final_ll)
        n_iterations[active] = iteration + 1
        # previous_ll is -inf until a cascade's first sweep completes;
        # the delta is then NaN/Inf and the comparison is correctly
        # False, so silence the invalid-value warning NumPy raises for
        # the array form of the same scalar check fit_em runs.
        with np.errstate(invalid="ignore"):
            converged = (np.abs(current_ll - previous_ll)
                         < tol * (1.0 + np.abs(previous_ll)))
        previous_ll = np.where(active, current_ll, previous_ll)
        active &= ~converged
        # -- compaction: flush the frozen, repack the survivors ------------
        n_active = int(active.sum())
        if (0 < n_active <= n_casc // 2
                and n_casc >= _COMPACT_MIN_CASCADES):
            frozen = np.flatnonzero(~active)
            out_background[orig[frozen]] = background[frozen]
            out_weights[orig[frozen]] = weights[frozen]
            out_buckets[orig[frozen]] = buckets[frozen]
            out_ll[orig[frozen]] = final_ll[frozen]
            out_iterations[orig[frozen]] = n_iterations[frozen]
            keep = np.flatnonzero(active)
            work = [work[i] for i in keep]
            orig = orig[keep]
            background = np.ascontiguousarray(background[keep])
            weights = np.ascontiguousarray(weights[keep])
            buckets = np.ascontiguousarray(buckets[keep])
            previous_ll = previous_ll[keep]
            final_ll = final_ll[keep]
            n_iterations = n_iterations[keep]
            packed = PackedCascades(work, basis.max_lag)
            structure = BatchedParentStructure(packed, basis)
            n_casc = packed.n_cascades
            counts = packed.counts
            entry_cell = structure.entry_cell
            cascade_of = packed.cascade_of
            bg_denominator = (priors.background_rate
                              + packed.n_bins[:, None])
            log_factorials = gammaln(counts + 1.0)
            active = np.ones(n_casc, dtype=bool)

    # Flush whatever the loop left in the working set (never-compacted
    # batches, survivors of the last compaction, max_iterations tails).
    out_background[orig] = background
    out_weights[orig] = weights
    out_buckets[orig] = buckets
    out_ll[orig] = final_ll
    out_iterations[orig] = n_iterations

    _record_batch_metrics(n_total, iterations_run,
                          perf_counter() - fit_start, {
                              "attribution": attribution_s,
                              "updates": updates_s,
                              "likelihood": likelihood_s,
                          })
    return BatchedEMResult(
        background=out_background,
        weights=out_weights,
        bucket_pmf=out_buckets,
        log_likelihood=out_ll,
        n_iterations=out_iterations,
        basis=basis,
    )
