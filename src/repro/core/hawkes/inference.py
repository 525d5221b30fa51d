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

Each is the one-cascade call of the batched array program of
:mod:`.batched` (:func:`~.batched.fit_gibbs_batched`,
:func:`~.batched.fit_em_batched`), which fits a corpus chunk with the
same bits as fitting each URL alone.  The sweeps run in *bucket space*:
candidate values gather ``buckets / bucket_size``, and the attribution
tallies and scatter-adds are sequential sums, so no ``(K, K,
max_lag)`` array is built inside the loop and ``basis.expand`` runs
once, for the returned impulse.  Gibbs attribution is a single bulk
uniform pass per sweep and its exposure uses the closed-form truncation
CDF; the sampler keeps seed-determinism but draws its randomness in a
different order than the historical per-event ``multinomial`` sampler
(the sampled distribution is unchanged).  EM is bit-identical to the
historical per-event loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..events import DiscreteEvents
from .basis import LagBasis
from .model import HawkesParams


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
    """Deterministic EM fit with MAP updates under the same priors.

    The one-cascade call of :func:`~.batched.fit_em_batched`, the only
    EM program.
    """
    from .batched import fit_em_batched  # batched imports this module
    return fit_em_batched(
        [events], max_lag, basis=basis, priors=priors,
        max_iterations=max_iterations, tol=tol).fit_result(0)
