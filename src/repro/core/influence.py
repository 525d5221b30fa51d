"""Corpus-level influence estimation (Section 5.2-5.3).

Pipeline: select URLs with activity on Twitter, /pol/, and at least one
of the six subreddits; drop the shortest gap-overlapping URLs; fit a
K=8 Hawkes model per URL; aggregate the weight matrices into the
quantities reported in Table 11 and Figures 10-11.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from ..config import (
    HAWKES_PROCESSES,
    HawkesConfig,
    SELECTED_SUBREDDITS,
)
from ..news.domains import NewsCategory
from ..obs import span
from ..parallel import (
    auto_chunk_size,
    iter_chunks,
    parallel_map,
    resolve_n_jobs,
    spawn_task_seeds,
)
from ..parallel.seeding import SeedLike
from ..timeutil import Interval, in_any_interval
from .events import DiscreteEvents, bin_timestamps
from .hawkes.basis import LagBasis, LogBinnedLagBasis
from .hawkes.batched import (
    BatchedFitResult,
    candidate_counts,
    fit_em_batched,
    fit_gibbs_batched,
    split_by_candidates,
)
from .hawkes.inference import Priors

FitMethod = Literal["gibbs", "em"]

#: Cascades packed into one batched fit, at most.  Bounds the flat
#: candidate arrays (memory scales with total events in the batch, not
#: with the corpus) while keeping per-iteration dispatch cost amortized
#: over enough cascades to matter.
MAX_BATCH_CASCADES = 1024
#: Candidate parents packed into one batched Gibbs fit, at most (a
#: cascade with more is fitted alone).  A Gibbs sweep's peak memory
#: grows by about 200 bytes per packed candidate; on paper-sized
#: corpora (a few hundred to 10k candidates per URL) batches past this
#: size save no further dispatch time but raise peak RSS.
MAX_BATCH_CANDIDATES = 16384


@dataclass(frozen=True)
class UrlCascade:
    """All observed posts of one URL across the modeled communities.

    ``events`` is a sequence of ``(timestamp, process_name)`` pairs; the
    process names must come from :data:`~repro.config.HAWKES_PROCESSES`.
    """

    url: str
    category: NewsCategory
    events: tuple[tuple[float, str], ...]

    @property
    def first_time(self) -> float:
        return min(t for t, _ in self.events)

    @property
    def last_time(self) -> float:
        return max(t for t, _ in self.events)

    @property
    def duration(self) -> float:
        return self.last_time - self.first_time

    def overlaps_gaps(self, gaps: Sequence[Interval]) -> bool:
        """True if any event of this cascade falls on a gap day."""
        return any(in_any_interval(t, gaps) for t, _ in self.events)


@dataclass(frozen=True)
class UrlFit:
    """Per-URL fit output kept for aggregation."""

    url: str
    category: NewsCategory
    background: np.ndarray        # (K,) events per bin
    weights: np.ndarray           # (K, K)
    event_counts: np.ndarray      # (K,) observed events per process
    n_bins: int
    log_likelihood: float
    #: Posterior W draws, (n_samples, K, K); None unless the corpus fit
    #: was asked to keep them (they dominate the result's footprint).
    weight_samples: np.ndarray | None = None


@dataclass
class InfluenceResult:
    """Everything Section 5 reports, in one bundle."""

    processes: tuple[str, ...]
    fits: list[UrlFit]

    def of_category(self, category: NewsCategory) -> list[UrlFit]:
        return [f for f in self.fits if f.category == category]

    def weight_stack(self, category: NewsCategory) -> np.ndarray:
        """(n_urls, K, K) stack of weight matrices for one category."""
        fits = self.of_category(category)
        if not fits:
            k = len(self.processes)
            return np.empty((0, k, k))
        return np.stack([f.weights for f in fits])


# ---------------------------------------------------------------------------
# URL selection and gap handling
# ---------------------------------------------------------------------------

def select_urls(cascades: Iterable[UrlCascade],
                processes: Sequence[str] = HAWKES_PROCESSES,
                subreddits: Sequence[str] = SELECTED_SUBREDDITS,
                require_all: Sequence[str] | None = None,
                require_any: Sequence[str] | None = None,
                ) -> list[UrlCascade]:
    """Keep URLs satisfying the corpus selection rule.

    The defaults are the Section 5.2 rule — >= 1 event on Twitter,
    /pol/, and any of the six subreddits; a scenario ecosystem may
    supply its own ``require_all`` (every listed process must appear)
    and ``require_any`` (at least one must appear; an empty sequence
    disables the clause).  Events on processes outside ``processes``
    are dropped from the retained cascades.
    """
    allowed = set(processes)
    if require_all is None:
        require_all = ("Twitter", "/pol/")
    if require_any is None:
        require_any = tuple(subreddits)
    any_set = set(require_any)
    kept: list[UrlCascade] = []
    for cascade in cascades:
        events = tuple((t, name) for t, name in cascade.events
                       if name in allowed)
        present = {name for _, name in events}
        if (all(name in present for name in require_all)
                and (not any_set or present & any_set)):
            kept.append(UrlCascade(cascade.url, cascade.category, events))
    return kept


def trim_gap_urls(cascades: Sequence[UrlCascade], gaps: Sequence[Interval],
                  fraction: float = 0.10) -> list[UrlCascade]:
    """Drop the ``fraction`` shortest-duration URLs among gap-overlapping ones.

    Section 5.2: missing Twitter days matter more for short-lived URLs, so
    the paper removes the 10% of gap-overlapping URLs with the shortest
    total duration.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be within [0, 1]")
    overlapping = [c for c in cascades if c.overlaps_gaps(gaps)]
    n_drop = int(round(len(overlapping) * fraction))
    if not n_drop:
        return list(cascades)
    by_duration = sorted(overlapping, key=lambda c: c.duration)
    dropped = {id(c) for c in by_duration[:n_drop]}
    return [c for c in cascades if id(c) not in dropped]


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def cascade_to_events(cascade: UrlCascade,
                      processes: Sequence[str] = HAWKES_PROCESSES,
                      delta_t: float = 60.0) -> DiscreteEvents:
    """Bin a cascade into the per-URL count matrix of Section 5.2."""
    index = {name: i for i, name in enumerate(processes)}
    timestamps = [t for t, _ in cascade.events]
    procs = [index[name] for _, name in cascade.events]
    return bin_timestamps(timestamps, procs, n_processes=len(processes),
                          delta_t=delta_t)


def _url_fits(cascades: Sequence[UrlCascade],
              events_list: Sequence[DiscreteEvents],
              batch: BatchedFitResult, keep_samples: bool) -> list[UrlFit]:
    """Slice one batched fit into per-URL results."""
    return [
        UrlFit(
            url=cascade.url,
            category=cascade.category,
            background=batch.background[i].copy(),
            weights=batch.weights[i].copy(),
            event_counts=events.events_per_process(),
            n_bins=events.n_bins,
            log_likelihood=float(batch.log_likelihood[i]),
            weight_samples=(batch.weight_samples[i].copy()
                            if keep_samples else None),
        )
        for i, (cascade, events) in enumerate(zip(cascades, events_list))
    ]


def _fit_batch(chunk: Sequence[tuple[UrlCascade,
                                     np.random.SeedSequence | None]], *,
               method: FitMethod, config: HawkesConfig,
               processes: tuple[str, ...], basis: LagBasis,
               priors: Priors, keep_samples: bool) -> list[UrlFit]:
    """Fit one packed batch of cascades; module-level for pickling.

    Gibbs packs contiguous runs of at most
    :data:`MAX_BATCH_CANDIDATES` candidate parents, each cascade with
    the generator of its own task seed.
    """
    cascades = [cascade for cascade, _ in chunk]
    events_list = [cascade_to_events(c, processes, config.delta_t)
                   for c in cascades]
    if method == "em":
        return _url_fits(cascades, events_list, fit_em_batched(
            events_list, config.max_lag_bins, basis=basis, priors=priors),
            keep_samples=False)
    fits: list[UrlFit] = []
    counts = candidate_counts(events_list, config.max_lag_bins)
    for run in split_by_candidates(counts, MAX_BATCH_CANDIDATES):
        batch = fit_gibbs_batched(
            events_list[run], config.max_lag_bins,
            [np.random.default_rng(seed) for _, seed in chunk[run]],
            basis=basis, priors=priors,
            n_iterations=config.gibbs_iterations,
            burn_in=config.gibbs_burn_in, keep_samples=keep_samples)
        fits += _url_fits(cascades[run], events_list[run], batch,
                          keep_samples)
    return fits


def fit_corpus(cascades: Sequence[UrlCascade],
               config: HawkesConfig | None = None,
               method: FitMethod = "gibbs",
               processes: Sequence[str] = HAWKES_PROCESSES,
               basis: LagBasis | None = None,
               rng: SeedLike = None,
               progress: Callable[[int, int], None] | None = None,
               n_jobs: int | None = 1,
               chunk_size: int | None = None,
               keep_samples: bool = False,
               ) -> InfluenceResult:
    """Fit one Hawkes model per URL and collect the results.

    The corpus is split into contiguous batches of at most
    :data:`MAX_BATCH_CASCADES` cascades (``chunk_size`` of them when
    given), and each batch is fitted as one packed array program
    (:func:`~.hawkes.batched.fit_em_batched` or
    :func:`~.hawkes.batched.fit_gibbs_batched`) that returns, for
    every cascade, the bits of fitting that URL alone.  Batches fan out
    over ``n_jobs`` worker processes
    (:func:`repro.parallel.parallel_map`); ``n_jobs=1`` keeps
    everything in-process and ``-1`` uses every core.  Each Gibbs URL
    draws from its own random stream spawned from ``rng`` and keyed by
    corpus position (task index), and EM is deterministic, which makes
    the result **bit-for-bit identical for every** ``n_jobs`` **and**
    ``chunk_size`` — the property the ``tests/test_parallel_*`` and
    ``tests/test_batched_*`` suites enforce.  ``rng`` accepts a
    ``Generator``, ``SeedSequence``, integer seed, or ``None`` (fresh
    entropy).
    """
    config = config or HawkesConfig()
    basis = basis or LogBinnedLagBasis(config.max_lag_bins)
    if method not in ("gibbs", "em"):
        raise ValueError(f"unknown fit method {method!r}")
    priors = Priors(
        background_shape=config.background_shape,
        background_rate=config.background_rate,
        weight_shape=config.weight_shape,
        weight_rate=config.weight_rate,
        impulse_concentration=config.impulse_concentration,
    )
    processes = tuple(processes)
    n_urls = len(cascades)
    if method == "gibbs":
        seeds: Sequence[np.random.SeedSequence | None] = spawn_task_seeds(
            rng, n_urls)
    else:  # EM is deterministic; don't advance the caller's seed state
        seeds = [None] * n_urls
    workers = resolve_n_jobs(n_jobs)
    if chunk_size is None:
        chunk_size = (auto_chunk_size(n_urls, workers)
                      if workers > 1 else n_urls)
    batch_size = max(1, min(chunk_size, MAX_BATCH_CASCADES))
    tasks = list(zip(cascades, seeds))
    batches = [tasks[start:stop]
               for start, stop in iter_chunks(n_urls, batch_size)]
    fit_batch = partial(
        _fit_batch, method=method, config=config, processes=processes,
        basis=basis, priors=priors, keep_samples=keep_samples)
    batch_progress = None
    if progress is not None:
        def batch_progress(done: int, total: int) -> None:
            progress(min(done * batch_size, n_urls), n_urls)
    with span("fit_corpus", urls=n_urls, method=method, n_jobs=n_jobs):
        nested = parallel_map(fit_batch, batches, n_jobs=n_jobs,
                              chunk_size=1, progress=batch_progress)
    fits = [fit for batch in nested for fit in batch]
    return InfluenceResult(processes=processes, fits=fits)


# ---------------------------------------------------------------------------
# Aggregation (Table 11, Figures 10 and 11)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightAggregate:
    """Figure 10: mean weights per category plus per-cell significance."""

    processes: tuple[str, ...]
    mean_alternative: np.ndarray   # (K, K)
    mean_mainstream: np.ndarray    # (K, K)
    percent_change: np.ndarray     # (K, K) alt over main, percent
    ks_pvalues: np.ndarray         # (K, K)

    def significance_stars(self) -> np.ndarray:
        """'**' for p < 0.01, '*' for p < 0.05, '' otherwise."""
        stars = np.full(self.ks_pvalues.shape, "", dtype=object)
        stars[self.ks_pvalues < 0.05] = "*"
        stars[self.ks_pvalues < 0.01] = "**"
        return stars


def aggregate_weights(result: InfluenceResult) -> WeightAggregate:
    """Mean W per category, percent difference, and KS significance."""
    alt = result.weight_stack(NewsCategory.ALTERNATIVE)
    main = result.weight_stack(NewsCategory.MAINSTREAM)
    if not len(alt) or not len(main):
        raise ValueError("need fits for both categories to aggregate")
    mean_alt = alt.mean(axis=0)
    mean_main = main.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = 100.0 * (mean_alt - mean_main) / mean_main
    # A zero mainstream mean cell makes the ratio +/-Inf (or NaN for
    # 0/0); mask to NaN so downstream consumers (report rendering, the
    # JSON payload) see one well-defined "undefined" marker instead of
    # formatting artifacts like "+inf%".
    pct[~np.isfinite(pct)] = np.nan
    from scipy import stats
    k = len(result.processes)
    pvalues = np.ones((k, k))
    for i in range(k):
        for j in range(k):
            stat = stats.ks_2samp(alt[:, i, j], main[:, i, j])
            pvalues[i, j] = stat.pvalue
    return WeightAggregate(
        processes=result.processes,
        mean_alternative=mean_alt,
        mean_mainstream=mean_main,
        percent_change=pct,
        ks_pvalues=pvalues,
    )


def influence_percentages(result: InfluenceResult,
                          category: NewsCategory) -> np.ndarray:
    """Figure 11 estimator.

    ``Pct[A, B] = sum_u W_u[A, B] * N_u[A] / sum_u N_u[B]``, the expected
    share of events on destination ``B`` caused by source ``A``.
    Returned as percentages.
    """
    fits = result.of_category(category)
    k = len(result.processes)
    caused = np.zeros((k, k))
    destination_events = np.zeros(k)
    for fit in fits:
        caused += fit.weights * fit.event_counts[:, None]
        destination_events += fit.event_counts
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = 100.0 * caused / destination_events[None, :]
    pct[:, destination_events == 0] = 0.0
    return pct


@dataclass(frozen=True)
class CorpusSummary:
    """Table 11: URLs, events, and mean background rates per process."""

    processes: tuple[str, ...]
    urls: dict[NewsCategory, np.ndarray]         # (K,) URLs with >=1 event
    events: dict[NewsCategory, np.ndarray]       # (K,) total events
    mean_background: dict[NewsCategory, np.ndarray]  # (K,) mean lambda0

    def totals(self, field_name: str) -> np.ndarray:
        data = getattr(self, field_name)
        return sum(data.values())


def corpus_background_rates(result: InfluenceResult) -> CorpusSummary:
    """Compute Table 11 from the per-URL fits."""
    k = len(result.processes)
    urls: dict[NewsCategory, np.ndarray] = {}
    events: dict[NewsCategory, np.ndarray] = {}
    backgrounds: dict[NewsCategory, np.ndarray] = {}
    for category in NewsCategory:
        fits = result.of_category(category)
        url_counts = np.zeros(k, dtype=np.int64)
        event_counts = np.zeros(k, dtype=np.int64)
        bg_sum = np.zeros(k)
        bg_n = np.zeros(k, dtype=np.int64)
        for fit in fits:
            present = fit.event_counts > 0
            url_counts += present.astype(np.int64)
            event_counts += fit.event_counts
            # Mean lambda0 over URLs where the process actually posted
            # (same population as the `urls` column); averaging over
            # every fit drags the mean toward the prior for processes
            # absent from most URLs.
            bg_sum += np.where(present, fit.background, 0.0)
            bg_n += present.astype(np.int64)
        urls[category] = url_counts
        events[category] = event_counts
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_bg = np.where(bg_n > 0, bg_sum / np.maximum(bg_n, 1), 0.0)
        backgrounds[category] = mean_bg
    return CorpusSummary(
        processes=result.processes,
        urls=urls,
        events=events,
        mean_background=backgrounds,
    )
