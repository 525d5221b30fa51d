"""Frozen per-URL Gibbs sampler: the reference batched Gibbs must match.

This is the one-cascade-at-a-time bucket-space sweep that
``repro.core.hawkes.inference.fit_gibbs`` ran before Gibbs fits moved to
the batched array program
(:func:`repro.core.hawkes.batched.fit_gibbs_batched`).
Batched Gibbs must reproduce it bit for bit — background, weights,
weight samples and log-likelihood — for every batch composition, chunk
size and worker count, so it stays here unchanged as the golden
reference.  It is not an optimization target.
"""

from __future__ import annotations

import numpy as np

from repro.core.hawkes.basis import LogBinnedLagBasis
from repro.core.hawkes.inference import FitResult, Priors, _initial_state
from repro.core.hawkes.model import HawkesParams, discrete_log_likelihood

from parent_reference import ParentStructure


def sample_parent_attributions(structure: ParentStructure,
                               background: np.ndarray,
                               flat_vals: np.ndarray,
                               rng: np.random.Generator,
                               ) -> tuple[np.ndarray, np.ndarray]:
    """One Gibbs attribution pass over every event of one cascade.

    Each of an entry's ``count`` events is attributed to the background
    (mass ``background[dst]``) or to one candidate parent (mass
    ``flat_vals`` within the entry's segment) by one bulk uniform pass
    and a single ``searchsorted`` against the candidate-mass cumsum.
    Returns ``(z_background, flat_draws)``: background counts per
    process ``(K,)`` and per-candidate child counts ``(F,)``.
    """
    events = structure.events
    k_procs = events.n_processes
    if not len(events):
        return np.zeros(k_procs), np.zeros(0)
    offsets = structure.offsets
    dst_all = structure.dst
    cum = np.zeros(len(flat_vals) + 1)
    np.cumsum(flat_vals, out=cum[1:])
    seg_mass = cum[offsets[1:]] - cum[offsets[:-1]]
    bg_mass = background[dst_all]
    totals = bg_mass + seg_mass

    rep = np.repeat(np.arange(len(events), dtype=np.int64),
                    events.counts.astype(np.int64))
    x = rng.random(len(rep)) * totals[rep]
    to_background = ((x < bg_mass[rep])
                     | (seg_mass[rep] <= 0) | (totals[rep] <= 0))
    z_background = np.bincount(
        dst_all[rep[to_background]], minlength=k_procs).astype(np.float64)

    flat_draws = np.zeros(len(flat_vals))
    cand = ~to_background
    if cand.any():
        rep_c = rep[cand]
        lo, hi = offsets[:-1][rep_c], offsets[1:][rep_c]
        targets = cum[lo] + (x[cand] - bg_mass[rep_c])
        chosen = np.searchsorted(cum[1:], targets, side="right")
        chosen = np.clip(chosen, lo, hi - 1)
        flat_draws += np.bincount(chosen, minlength=len(flat_vals))
    return z_background, flat_draws


def tally_draws(structure: ParentStructure, flat_draws: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(z_weight, z_bucket)``: per-candidate child counts summed into
    their ``(K, K)`` cells and ``(K, K, B)`` bucket cells."""
    shape = structure._pair_shape + (structure.basis.n_buckets,)
    z_bucket = np.bincount(structure._bucket_index, weights=flat_draws,
                           minlength=int(np.prod(shape))).reshape(shape)
    return z_bucket.sum(axis=-1), z_bucket


def candidate_values(structure: ParentStructure, weights: np.ndarray,
                     buckets: np.ndarray) -> np.ndarray:
    """``count * W[src, dst] * buckets[src, dst, b] / size[b]`` per
    candidate: the per-lag PMF value, gathered in bucket space."""
    return (structure.flat_cnt * weights.reshape(-1)[structure._pair]
            * (buckets.reshape(-1)[structure._bucket_index]
               / structure.basis.bucket_sizes[structure.flat_bucket]))


def bucket_exposure(structure: ParentStructure,
                    buckets: np.ndarray) -> np.ndarray:
    """Closed-form truncated exposure, scatter-added row by row."""
    k = buckets.shape[-2]
    out = np.zeros(buckets.shape[:-1])
    if len(structure.v_row):
        np.add.at(out.reshape(-1, k), structure.v_row,
                  structure.v_cnt[:, None]
                  * structure.truncation_cdf_rows(buckets))
    return out


def reference_fit_gibbs(events, max_lag, basis=None, priors=None,
                        n_iterations=120, burn_in=40, rng=None,
                        keep_samples=True) -> FitResult:
    """Per-URL Gibbs sampling; returns posterior means."""
    if burn_in >= n_iterations:
        raise ValueError("burn_in must be smaller than n_iterations")
    rng = rng or np.random.default_rng()
    priors = priors or Priors()
    basis = basis or LogBinnedLagBasis(max_lag)
    k_procs = events.n_processes
    structure = ParentStructure(events, basis)
    background, weights, buckets = _initial_state(events, basis, priors)

    kept_bg, kept_w, kept_buckets = [], [], []
    for sweep in range(n_iterations):
        flat_vals = candidate_values(structure, weights, buckets)
        z_background, flat_draws = sample_parent_attributions(
            structure, background, flat_vals, rng)
        z_weight, z_bucket = tally_draws(structure, flat_draws)
        background = rng.gamma(
            priors.background_shape + z_background,
            1.0 / (priors.background_rate + events.n_bins))
        exposure = bucket_exposure(structure, buckets)
        weights = rng.gamma(priors.weight_shape + z_weight,
                            1.0 / (priors.weight_rate + exposure))
        conc = priors.impulse_concentration + z_bucket
        buckets = rng.gamma(conc, 1.0)  # Dirichlet via normalized Gammas
        buckets = np.maximum(buckets, 1e-12)
        buckets /= buckets.sum(axis=2, keepdims=True)
        if sweep >= burn_in:
            kept_bg.append(background.copy())
            kept_w.append(weights.copy())
            kept_buckets.append(buckets.copy())

    mean_bg = np.mean(kept_bg, axis=0)
    mean_w = np.mean(kept_w, axis=0)
    mean_buckets = np.mean(kept_buckets, axis=0)
    mean_buckets /= mean_buckets.sum(axis=2, keepdims=True)
    params = HawkesParams(background=mean_bg, weights=mean_w,
                          impulse=basis.expand(mean_buckets))
    samples = (np.array(kept_w) if keep_samples
               else np.empty((0, k_procs, k_procs)))
    return FitResult(params=params,
                     log_likelihood=discrete_log_likelihood(params, events),
                     weight_samples=samples, n_iterations=n_iterations)
