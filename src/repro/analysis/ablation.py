"""Ablations over the Section-5 design choices.

The paper asserts (without showing) that results were "similar" for
alternative excitation windows of 6/12/24/48 hours; it picks 1-minute
bins as a cost/accuracy compromise and drops the 10% shortest
gap-overlapping URLs.  This module makes each choice a sweepable axis
and reports how the headline quantities move:

* :func:`sweep_bin_size`       — Delta t in {0.5, 1, 5} minutes
* :func:`sweep_max_lag`        — Delta t_max in {6, 12, 24, 48} hours
* :func:`sweep_gap_trim`       — trim fraction in {0, 10, 20}%
* :func:`estimator_agreement`  — Gibbs vs continuous-time EM
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..config import HAWKES_PROCESSES, HawkesConfig
from ..core.influence import (
    InfluenceResult,
    UrlCascade,
    cascade_to_events,
    fit_corpus,
    trim_gap_urls,
)
from ..core.hawkes.continuous import (
    discrete_events_to_continuous,
    fit_continuous_em,
)
from ..news.domains import NewsCategory
from ..timeutil import Interval


@dataclass(frozen=True)
class SweepPoint:
    """One configuration's headline outputs."""

    label: str
    n_urls: int
    mean_weight_alt: np.ndarray     # (K, K)
    mean_weight_main: np.ndarray    # (K, K)

    def twitter_self_excitation(self) -> tuple[float, float]:
        t = HAWKES_PROCESSES.index("Twitter")
        return (float(self.mean_weight_alt[t, t]),
                float(self.mean_weight_main[t, t]))


def _fit_point(label: str, cascades: Sequence[UrlCascade],
               config: HawkesConfig,
               rng: np.random.Generator,
               n_jobs: int | None = 1) -> SweepPoint:
    result = fit_corpus(cascades, config, rng=rng, n_jobs=n_jobs)
    alt = result.weight_stack(NewsCategory.ALTERNATIVE)
    main = result.weight_stack(NewsCategory.MAINSTREAM)
    return SweepPoint(
        label=label,
        n_urls=len(result.fits),
        mean_weight_alt=(alt.mean(axis=0) if len(alt)
                         else np.zeros((8, 8))),
        mean_weight_main=(main.mean(axis=0) if len(main)
                          else np.zeros((8, 8))),
    )


def sweep_bin_size(cascades: Sequence[UrlCascade],
                   base: HawkesConfig,
                   bin_seconds: Sequence[int] = (30, 60, 300),
                   seed: int = 0,
                   n_jobs: int | None = 1) -> list[SweepPoint]:
    """Refit the corpus at several Delta t values.

    ``max_lag_bins`` is rescaled so the excitation window stays 12 h.
    """
    points = []
    for delta_t in bin_seconds:
        max_lag = int(base.max_lag_bins * base.delta_t / delta_t)
        config = replace(base, delta_t=delta_t, max_lag_bins=max_lag)
        rng = np.random.default_rng(seed)
        points.append(_fit_point(f"dt={delta_t}s", cascades, config, rng,
                                 n_jobs))
    return points


def sweep_max_lag(cascades: Sequence[UrlCascade],
                  base: HawkesConfig,
                  lag_hours: Sequence[int] = (6, 12, 24, 48),
                  seed: int = 0,
                  n_jobs: int | None = 1) -> list[SweepPoint]:
    """Refit with different excitation windows (paper: 'similar')."""
    points = []
    for hours in lag_hours:
        config = replace(base,
                         max_lag_bins=int(hours * 3600 / base.delta_t))
        rng = np.random.default_rng(seed)
        points.append(_fit_point(f"lag={hours}h", cascades, config, rng,
                                 n_jobs))
    return points


def sweep_gap_trim(cascades: Sequence[UrlCascade],
                   gaps: Sequence[Interval],
                   base: HawkesConfig,
                   fractions: Sequence[float] = (0.0, 0.10, 0.20),
                   seed: int = 0,
                   n_jobs: int | None = 1) -> list[SweepPoint]:
    """Refit with different gap-overlap trim fractions."""
    points = []
    for fraction in fractions:
        kept = trim_gap_urls(list(cascades), gaps, fraction)
        rng = np.random.default_rng(seed)
        points.append(_fit_point(f"trim={int(fraction * 100)}%",
                                 kept, base, rng, n_jobs))
    return points


@dataclass(frozen=True)
class EstimatorComparison:
    """Per-URL weight matrices under two estimators."""

    gibbs: np.ndarray        # (n, K, K)
    continuous: np.ndarray   # (n, K, K)

    def correlation(self, a: str, b: str) -> float:
        """Pearson correlation between two estimators' weight entries."""
        x = getattr(self, a).ravel()
        y = getattr(self, b).ravel()
        if x.std() == 0 or y.std() == 0:
            return 0.0
        return float(np.corrcoef(x, y)[0, 1])

    def mean_matrix_correlation(self, a: str, b: str) -> float:
        """Correlation of the corpus-mean weight matrices.

        Per-URL cells are noisy on sparse cascades; the quantity the
        paper interprets (Figure 10) is the mean matrix, where the
        estimators should agree much more closely.
        """
        x = getattr(self, a).mean(axis=0).ravel()
        y = getattr(self, b).mean(axis=0).ravel()
        if x.std() == 0 or y.std() == 0:
            return 0.0
        return float(np.corrcoef(x, y)[0, 1])

    def mean_absolute_difference(self, a: str, b: str) -> float:
        return float(np.abs(getattr(self, a) - getattr(self, b)).mean())


def estimator_agreement(cascades: Sequence[UrlCascade],
                        config: HawkesConfig,
                        seed: int = 0,
                        n_jobs: int | None = 1) -> EstimatorComparison:
    """Fit the same URLs with discrete-time Gibbs and continuous EM."""
    rng = np.random.default_rng(seed)
    gibbs = fit_corpus(cascades, config, rng=rng, n_jobs=n_jobs)
    continuous_weights = []
    conv_rng = np.random.default_rng(seed + 1)
    for cascade in cascades:
        events = cascade_to_events(cascade, delta_t=config.delta_t)
        continuous_events = discrete_events_to_continuous(
            events, delta_t=config.delta_t, rng=conv_rng)
        fit = fit_continuous_em(
            continuous_events,
            decay=1.0 / (config.delta_t * 30),  # ~30-bin kernel scale
            max_iterations=40)
        continuous_weights.append(fit.params.weights)
    return EstimatorComparison(
        gibbs=np.stack([f.weights for f in gibbs.fits]),
        continuous=np.stack(continuous_weights),
    )


def weight_stability(points: Sequence[SweepPoint]) -> float:
    """Max relative change of W(T->T) across a sweep (0 = identical)."""
    values = [p.twitter_self_excitation()[0] for p in points]
    if not values or max(values) == 0:
        return 0.0
    return float((max(values) - min(values)) / max(values))
