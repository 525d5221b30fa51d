"""Core contribution: discrete-time Hawkes influence estimation.

``repro.core.hawkes`` implements the statistical machinery of Section 5
(model, simulation, Gibbs inference) and ``repro.core.influence``
implements the corpus-level experiment: URL selection, per-URL fitting,
and the aggregations behind Table 11 and Figures 10-11.
"""

from .events import DiscreteEvents, bin_timestamps
from .hawkes import (
    DirichletLagBasis,
    HawkesParams,
    LogBinnedLagBasis,
    discrete_log_likelihood,
    expected_rate,
    fit_gibbs,
    simulate_branching,
    simulate_stepwise,
)
from .influence import (
    InfluenceResult,
    UrlCascade,
    aggregate_weights,
    corpus_background_rates,
    fit_corpus,
    influence_percentages,
    select_urls,
    trim_gap_urls,
)

__all__ = [
    "DiscreteEvents",
    "bin_timestamps",
    "DirichletLagBasis",
    "HawkesParams",
    "LogBinnedLagBasis",
    "discrete_log_likelihood",
    "expected_rate",
    "fit_gibbs",
    "simulate_branching",
    "simulate_stepwise",
    "InfluenceResult",
    "UrlCascade",
    "aggregate_weights",
    "corpus_background_rates",
    "fit_corpus",
    "influence_percentages",
    "select_urls",
    "trim_gap_urls",
]
