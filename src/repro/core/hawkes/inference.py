"""Parameter inference for the discrete Hawkes model.

Two fitters with the same interface:

* :func:`fit_gibbs` — the paper's method ([20, 21]): Gibbs sampling with
  auxiliary parent attribution.  Every event is stochastically attributed
  either to the background rate or to an earlier event; conditioned on
  the attributions, the Gamma/Dirichlet priors are conjugate and all
  parameters are resampled in closed form.
* :func:`fit_em` — expectation-maximization on the identical latent
  structure, with MAP updates under the same priors.  Deterministic and
  faster; used as an independent cross-check of the sampler.

Both fitters run on the flat segment kernels of :mod:`.kernels`, and
every responsibility/exposure accumulation is vectorized.
:func:`fit_gibbs` is the one-cascade call of
:func:`~.batched.fit_gibbs_batched`, whose sweeps run in *bucket
space*: candidate values gather ``buckets / bucket_size``, the exposure
uses the closed-form truncation CDF, and the attribution tallies are
``np.bincount`` sums, so no ``(K, K, max_lag)`` array is built inside
the loop and ``basis.expand`` runs once, for the returned impulse.
Attribution is a single bulk uniform pass per sweep.  The sampler keeps
seed-determinism but draws its randomness in a different order than
the historical per-event ``multinomial`` sampler (the sampled
distribution is unchanged).  EM enumerates parent candidates once per
``(events, basis)`` (cached on the events object), keeps the per-lag
kernels over the expanded PMF, and is bit-identical to the historical
per-event loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ...obs import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_DELTA_BUCKETS,
    get_registry,
)
from ..events import DiscreteEvents
from .basis import LagBasis, LogBinnedLagBasis
from .kernels import ParentStructure, get_parent_structure
from .model import HawkesParams, discrete_log_likelihood

#: Backwards-compatible alias; the class moved to :mod:`.kernels`.
_ParentStructure = ParentStructure


@dataclass(frozen=True)
class Priors:
    """Conjugate prior hyper-parameters (shape/rate parameterization)."""

    background_shape: float = 1.0
    background_rate: float = 100.0
    weight_shape: float = 1.0
    weight_rate: float = 10.0
    impulse_concentration: float = 1.0

    def __post_init__(self) -> None:
        if min(self.background_shape, self.background_rate,
               self.weight_shape, self.weight_rate,
               self.impulse_concentration) <= 0:
            raise ValueError("prior hyper-parameters must be positive")


@dataclass(frozen=True)
class FitResult:
    """Posterior summary of one model fit."""

    params: HawkesParams
    log_likelihood: float
    #: Per-sweep posterior draws of W, shape (n_samples, K, K); empty for EM.
    weight_samples: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0, 0)))
    n_iterations: int = 0

    @property
    def background(self) -> np.ndarray:
        return self.params.background

    @property
    def weights(self) -> np.ndarray:
        return self.params.weights


def _initial_state(events: DiscreteEvents, basis: LagBasis, priors: Priors,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Heuristic initialization: prior means, weights seeded from data."""
    k_procs = events.n_processes
    background = np.full(
        k_procs, priors.background_shape / priors.background_rate)
    totals = events.events_per_process()
    background = np.maximum(background,
                            0.5 * totals / max(events.n_bins, 1))
    weights = np.full((k_procs, k_procs),
                      priors.weight_shape / priors.weight_rate)
    buckets = np.full((k_procs, k_procs, basis.n_buckets),
                      1.0 / basis.n_buckets)
    return background, weights, buckets


def _record_fit_metrics(method: str, total: float,
                        phases: dict[str, float]) -> None:
    """Observe one completed fit.

    Pure timing — nothing here touches the RNG or the fitted arrays,
    so instrumented fits stay bit-identical to uninstrumented ones.
    """
    registry = get_registry()
    registry.counter("repro_fit_total",
                     "Completed per-URL Hawkes fits.", method=method).inc()
    registry.histogram("repro_fit_seconds",
                       "Wall time of one Hawkes fit.",
                       method=method).observe(total)
    phase_help = "Kernel wall time per fit phase, summed over sweeps."
    for phase, seconds in phases.items():
        registry.histogram("repro_fit_phase_seconds", phase_help,
                           method=method, phase=phase).observe(seconds)


def fit_gibbs(events: DiscreteEvents, max_lag: int,
              basis: LagBasis | None = None,
              priors: Priors | None = None,
              n_iterations: int = 120, burn_in: int = 40,
              rng: np.random.Generator | None = None,
              keep_samples: bool = True) -> FitResult:
    """Fit by Gibbs sampling; returns posterior means.

    Parameters mirror Section 5.2: ``max_lag`` is ``Delta t_max`` in bins
    (720 for the paper's 12-hour window at 1-minute bins).  This is the
    one-cascade call of :func:`~.batched.fit_gibbs_batched`, the only
    Gibbs sweep.
    """
    from .batched import fit_gibbs_batched  # batched imports this module
    return fit_gibbs_batched(
        [events], max_lag, [rng or np.random.default_rng()], basis=basis,
        priors=priors, n_iterations=n_iterations, burn_in=burn_in,
        keep_samples=keep_samples).fit_result(0)


def fit_em(events: DiscreteEvents, max_lag: int,
           basis: LagBasis | None = None,
           priors: Priors | None = None,
           max_iterations: int = 200, tol: float = 1e-6) -> FitResult:
    """Deterministic EM fit with MAP updates under the same priors."""
    priors = priors or Priors()
    basis = basis or LogBinnedLagBasis(max_lag)
    if basis.max_lag != max_lag:
        raise ValueError("basis.max_lag must equal max_lag")
    k_procs = events.n_processes
    fit_start = perf_counter()
    structure = get_parent_structure(events, basis)
    background, weights, buckets = _initial_state(events, basis, priors)

    counts = events.counts.astype(np.float64)
    dst_all = events.processes.astype(np.int64)
    previous_ll = -np.inf
    iterations_run = 0
    attribution_s = updates_s = likelihood_s = 0.0
    relative_delta = np.inf
    for iteration in range(max_iterations):
        iterations_run = iteration + 1
        phase_start = perf_counter()
        lag_pmf = basis.expand(buckets)
        z_background = np.zeros(k_procs)
        flat_vals = structure.all_candidate_values(weights, lag_pmf)
        # per-event totals (background + candidate mass), fully vectorized
        seg_sums = structure.segment_sums(flat_vals)
        totals = background[dst_all] + seg_sums
        safe = totals > 0
        bg_resp = np.where(safe, counts * background[dst_all]
                           / np.where(safe, totals, 1.0), counts)
        np.add.at(z_background, dst_all, bg_resp)
        z_weight = np.zeros((k_procs, k_procs))
        z_bucket = np.zeros((k_procs, k_procs, basis.n_buckets))
        if len(flat_vals):
            scale = np.where(safe, counts / np.where(safe, totals, 1.0),
                             0.0)
            flat_resp = flat_vals * np.repeat(scale, structure.sizes)
            np.add.at(z_weight, (structure.flat_src, structure.flat_dst),
                      flat_resp)
            np.add.at(z_bucket,
                      (structure.flat_src, structure.flat_dst,
                       structure.flat_bucket), flat_resp)
        attribution_s += perf_counter() - phase_start
        # -- MAP M-step -----------------------------------------------------
        phase_start = perf_counter()
        background = ((priors.background_shape - 1.0 + z_background)
                      / (priors.background_rate + events.n_bins))
        background = np.maximum(background, 1e-12)
        lag_cdf = np.cumsum(lag_pmf, axis=2)
        exposure = structure.exposure(lag_cdf)
        weights = ((priors.weight_shape - 1.0 + z_weight)
                   / (priors.weight_rate + exposure))
        weights = np.maximum(weights, 0.0)
        conc = priors.impulse_concentration - 1.0 + z_bucket
        conc = np.maximum(conc, 1e-12)
        buckets = conc / conc.sum(axis=2, keepdims=True)
        updates_s += perf_counter() - phase_start

        phase_start = perf_counter()
        params = HawkesParams(background=background, weights=weights,
                              impulse=basis.expand(buckets))
        current_ll = discrete_log_likelihood(params, events)
        likelihood_s += perf_counter() - phase_start
        relative_delta = (abs(current_ll - previous_ll)
                          / (1 + abs(previous_ll)))
        if abs(current_ll - previous_ll) < tol * (1 + abs(previous_ll)):
            previous_ll = current_ll
            break
        previous_ll = current_ll

    params = HawkesParams(background=background, weights=weights,
                          impulse=basis.expand(buckets))
    registry = get_registry()
    registry.histogram(
        "repro_fit_em_iterations", "EM iterations to convergence.",
        edges=DEFAULT_COUNT_BUCKETS).observe(iterations_run)
    if np.isfinite(relative_delta):
        registry.histogram(
            "repro_fit_em_convergence_delta",
            "Final relative log-likelihood delta at EM termination.",
            edges=DEFAULT_DELTA_BUCKETS).observe(relative_delta)
    _record_fit_metrics("em", perf_counter() - fit_start, {
        "attribution": attribution_s,
        "updates": updates_s,
        "likelihood": likelihood_s,
    })
    return FitResult(
        params=params,
        log_likelihood=previous_ll,
        n_iterations=iterations_run,
    )
