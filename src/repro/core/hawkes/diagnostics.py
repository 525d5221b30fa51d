"""Inference diagnostics: convergence, posterior predictive checks,
and residual analysis for the discrete Hawkes model.

The paper fits thousands of per-URL models with Gibbs sampling but
reports no convergence evidence; this module supplies the checks a
careful replication needs:

* :func:`geweke_z` / :func:`effective_sample_size` — standard MCMC
  chain diagnostics on the weight samples kept by
  :func:`~repro.core.hawkes.inference.fit_gibbs`.
* :func:`posterior_predictive_check` — simulate from the fitted
  parameters and compare per-process event totals against the data.
* :func:`residual_uniformity` — a discrete-time analogue of the
  time-rescaling theorem: transform inter-event gaps through the fitted
  cumulative intensity and test the result for uniformity.
* :func:`sbc_ranks` — simulation-based calibration (Talts et al.,
  arXiv:1804.06788) of the Gibbs sampler itself: draw parameters from
  the prior, simulate, fit, and rank the true weights among the
  posterior draws.  The ranks are uniform exactly when the sampler
  targets the right posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..events import DiscreteEvents
from .basis import LagBasis
from .batched import fit_gibbs_batched
from .inference import Priors
from .model import HawkesParams, expected_rate
from .simulation import simulate_branching


# ---------------------------------------------------------------------------
# Chain diagnostics
# ---------------------------------------------------------------------------

def geweke_z(chain: np.ndarray, first: float = 0.1,
             last: float = 0.5) -> float:
    """Geweke convergence z-score for one scalar chain.

    Compares the mean of the first ``first`` fraction of the chain with
    the mean of the last ``last`` fraction; |z| < 2 is the usual
    "no evidence against convergence" threshold.
    """
    chain = np.asarray(chain, dtype=np.float64)
    if chain.ndim != 1 or len(chain) < 10:
        raise ValueError("need a 1-D chain of at least 10 samples")
    n = len(chain)
    head = chain[: max(1, int(n * first))]
    tail = chain[n - max(1, int(n * last)):]
    var = head.var(ddof=1) / len(head) + tail.var(ddof=1) / len(tail)
    if var <= 0:
        return 0.0
    return float((head.mean() - tail.mean()) / np.sqrt(var))


def effective_sample_size(chain: np.ndarray,
                          max_lag: int | None = None) -> float:
    """ESS via the initial-positive-sequence autocorrelation estimator."""
    chain = np.asarray(chain, dtype=np.float64)
    n = len(chain)
    if n < 4:
        return float(n)
    centered = chain - chain.mean()
    denom = float(np.dot(centered, centered))
    if denom <= 0:
        return float(n)
    max_lag = max_lag or n // 2
    rho_sum = 0.0
    for lag in range(1, max_lag):
        rho = float(np.dot(centered[:-lag], centered[lag:])) / denom
        if rho <= 0:
            break
        rho_sum += rho
    return float(n / (1.0 + 2.0 * rho_sum))


@dataclass(frozen=True)
class ChainDiagnostics:
    """Summary over every weight-matrix entry's chain."""

    geweke: np.ndarray   # (K, K) z-scores
    ess: np.ndarray      # (K, K) effective sample sizes
    n_samples: int

    @property
    def worst_geweke(self) -> float:
        return float(np.abs(self.geweke).max())

    @property
    def min_ess(self) -> float:
        return float(self.ess.min())

    def fraction_large_geweke(self, z_threshold: float = 3.0) -> float:
        """Share of chains whose |Geweke z| exceeds the threshold.

        With K*K chains per fit, the max |z| is inflated by multiple
        comparisons; the *fraction* of flagged chains is the stable
        convergence signal.
        """
        return float((np.abs(self.geweke) > z_threshold).mean())

    def converged(self, z_threshold: float = 3.0,
                  min_ess: float = 5.0,
                  max_flagged_fraction: float = 0.10) -> bool:
        return (self.fraction_large_geweke(z_threshold)
                <= max_flagged_fraction
                and self.min_ess >= min_ess)


def diagnose_weight_chains(weight_samples: np.ndarray) -> ChainDiagnostics:
    """Run Geweke and ESS on each ``W[i, j]`` chain.

    ``weight_samples`` is the ``(n_samples, K, K)`` array returned by
    :func:`fit_gibbs` with ``keep_samples=True``.
    """
    if weight_samples.ndim != 3 or len(weight_samples) < 10:
        raise ValueError("need (n_samples >= 10, K, K) weight samples")
    _, k, _ = weight_samples.shape
    geweke = np.zeros((k, k))
    ess = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            chain = weight_samples[:, i, j]
            geweke[i, j] = geweke_z(chain)
            ess[i, j] = effective_sample_size(chain)
    return ChainDiagnostics(geweke=geweke, ess=ess,
                            n_samples=len(weight_samples))


# ---------------------------------------------------------------------------
# Posterior predictive checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictiveCheck:
    """Observed vs replicated per-process event totals."""

    observed: np.ndarray          # (K,)
    replicated_mean: np.ndarray   # (K,)
    replicated_std: np.ndarray    # (K,)
    z_scores: np.ndarray          # (K,)

    def acceptable(self, threshold: float = 3.0) -> bool:
        return bool(np.all(np.abs(self.z_scores) < threshold))


def posterior_predictive_check(params: HawkesParams,
                               events: DiscreteEvents,
                               n_replicates: int = 20,
                               rng: np.random.Generator | None = None,
                               ) -> PredictiveCheck:
    """Simulate replicates from ``params`` and compare event totals."""
    rng = rng or np.random.default_rng()
    observed = events.events_per_process().astype(np.float64)
    totals = np.zeros((n_replicates, params.n_processes))
    for r in range(n_replicates):
        replicate = simulate_branching(params, events.n_bins, rng)
        totals[r] = replicate.events_per_process()
    mean = totals.mean(axis=0)
    std = totals.std(axis=0)
    safe_std = np.maximum(std, 1.0)
    return PredictiveCheck(
        observed=observed,
        replicated_mean=mean,
        replicated_std=std,
        z_scores=(observed - mean) / safe_std,
    )


# ---------------------------------------------------------------------------
# Residual analysis (discrete time-rescaling)
# ---------------------------------------------------------------------------

def residual_uniformity(params: HawkesParams, events: DiscreteEvents,
                        rng: np.random.Generator | None = None,
                        ) -> float:
    """KS p-value for uniformity of randomized rescaled residuals.

    For a well-specified model, the cumulative intensity between
    consecutive events is Exp(1) distributed (time-rescaling theorem).
    In discrete time we accumulate ``lambda[t, k]`` between events and
    jitter within the event bin to break ties, then KS-test the
    exponential CDF transforms against Uniform(0, 1).
    """
    rng = rng or np.random.default_rng()
    if not len(events):
        raise ValueError("need events for residual analysis")
    parts: list[np.ndarray] = []
    all_bins = np.arange(events.n_bins)
    rates = expected_rate(params, events, query_bins=all_bins)
    dense = events.to_dense()
    for k in range(params.n_processes):
        rate_k = rates[:, k]
        cum = np.concatenate([[0.0], np.cumsum(rate_k)])
        event_bins = np.nonzero(dense[:, k])[0]
        reps = dense[event_bins, k]
        n_events_k = int(reps.sum())
        if not n_events_k:
            continue
        # integrated intensity up to a uniform point in each event's bin
        totals = (np.repeat(cum[event_bins], reps)
                  + np.repeat(rate_k[event_bins], reps)
                  * rng.uniform(size=n_events_k))
        gaps = np.diff(totals, prepend=0.0)
        positive = gaps > 0
        if positive.any():
            parts.append(1.0 - np.exp(-gaps[positive]))
    residuals = np.concatenate(parts) if parts else np.empty(0)
    if len(residuals) < 5:
        return 1.0
    from scipy import stats
    result = stats.kstest(residuals, "uniform")
    return float(result.pvalue)


# ---------------------------------------------------------------------------
# Simulation-based calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationRanks:
    """Ranks of the true weights among thinned posterior draws."""

    #: ``(n_replications, K * K)`` ranks, each in ``0..n_draws``.
    ranks: np.ndarray
    #: Thinned posterior draws each rank was taken among.
    n_draws: int

    def histogram(self) -> np.ndarray:
        """Counts of every rank value ``0..n_draws``, pooled over cells."""
        return np.bincount(self.ranks.ravel(), minlength=self.n_draws + 1)

    def chi_square_pvalue(self) -> float:
        """Chi-square p-value of the pooled rank histogram against the
        discrete uniform law a calibrated sampler produces."""
        from scipy import stats
        return float(stats.chisquare(self.histogram()).pvalue)


def sbc_ranks(basis: LagBasis, n_processes: int, n_bins: int,
              n_replications: int, priors: Priors | None = None,
              n_iterations: int = 60, burn_in: int = 20, thin: int = 4,
              rng: np.random.Generator | None = None,
              ) -> CalibrationRanks:
    """Simulation-based calibration of the Gibbs sampler.

    Each replication draws ``theta = (lambda_0, W, bucket PMFs)`` from
    ``priors`` (Gamma, Gamma and Dirichlet, the sampler's own conjugate
    priors) and simulates ``n_bins`` bins with
    :func:`simulate_branching`; all replications are then fitted as one
    batch by :func:`~.batched.fit_gibbs_batched`, and each true
    ``W[i, j]`` is ranked among every ``thin``-th kept posterior draw.
    ``rng`` draws every theta and simulation and spawns each fit's
    generator, so a seeded ``rng`` makes the ranks reproducible.
    """
    rng = rng or np.random.default_rng()
    priors = priors or Priors()
    k = n_processes
    true_weights = []
    simulated = []
    for _ in range(n_replications):
        background = rng.gamma(priors.background_shape,
                               1.0 / priors.background_rate, size=k)
        weights = rng.gamma(priors.weight_shape, 1.0 / priors.weight_rate,
                            size=(k, k))
        buckets = rng.dirichlet(
            np.full(basis.n_buckets, priors.impulse_concentration),
            size=(k, k))
        params = HawkesParams(background=background, weights=weights,
                              impulse=basis.expand(buckets))
        simulated.append(simulate_branching(params, n_bins, rng))
        true_weights.append(weights)
    fits = fit_gibbs_batched(simulated, basis.max_lag,
                             rng.spawn(n_replications), basis=basis,
                             priors=priors, n_iterations=n_iterations,
                             burn_in=burn_in)
    draws = fits.weight_samples[:, ::thin]
    ranks = (draws < np.array(true_weights)[:, None]).sum(axis=1)
    return CalibrationRanks(ranks=ranks.reshape(n_replications, k * k),
                            n_draws=draws.shape[1])
