"""Windowed Hawkes refitting: rolling influence estimates (Section 5).

The batch experiment fits every URL once, after the full eight-month
collection.  An always-on service wants the influence matrices to track
the stream instead, so the refitter re-estimates them at a configurable
cadence over a sliding window of *settled* cascades — URLs whose last
observed event is older than a quiet horizon (still-growing cascades
would bias the weights) but newer than the window start.  Fitting
reuses :func:`repro.core.influence.fit_corpus` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..config import HawkesConfig
from ..obs import get_registry, span
from ..core.influence import (
    FitMethod,
    InfluenceResult,
    select_urls,
    fit_corpus,
)
from ..platforms.registry import PAPER_ECOSYSTEM, Ecosystem
from ..timeutil import SECONDS_PER_DAY
from .aggregators import CascadeAssembler


@dataclass
class RefitPolicy:
    """When and over what horizon the refitter runs."""

    #: Re-estimate after this many new records (stream cadence).
    every_records: int = 5000
    #: Sliding window length over cascade completion times, seconds.
    window_seconds: float = 60 * SECONDS_PER_DAY
    #: A cascade is "settled" once quiet for this long, seconds.
    quiet_seconds: float = 2 * SECONDS_PER_DAY
    #: Cap on URLs per refit (keeps a refit's cost bounded).
    max_urls: int = 100
    #: Fit method.  EM is not the cheap one: at the presets' sweep
    #: counts batched Gibbs fits a corpus 4-5x faster, and Gibbs refits
    #: are deterministic too (each refit's rng is ``seed + n_refits``).
    method: FitMethod = "em"
    #: Worker processes per refit (see :mod:`repro.parallel`); results
    #: are identical for any value, so this is purely a latency knob.
    n_jobs: int = 1


@dataclass
class WindowedHawkesRefitter:
    """Sliding-window influence re-estimation at a record cadence."""

    policy: RefitPolicy = field(default_factory=RefitPolicy)
    config: HawkesConfig = field(default_factory=lambda: HawkesConfig(
        gibbs_iterations=30, gibbs_burn_in=10))
    seed: int = 0
    #: K-platform ecosystem: its processes become the fit axes and its
    #: require_all/require_any rule selects the corpus (the paper's
    #: eight processes and Section 5.2 rule by default).
    ecosystem: Ecosystem = field(default_factory=lambda: PAPER_ECOSYSTEM)

    def __post_init__(self) -> None:
        self.last_result: InfluenceResult | None = None
        self.n_refits = 0
        self.records_at_last_refit = 0
        self.last_corpus_size = 0

    def due(self, records_seen: int) -> bool:
        return (records_seen - self.records_at_last_refit
                >= self.policy.every_records)

    def maybe_refit(self, assembler: CascadeAssembler, now: float,
                    records_seen: int) -> InfluenceResult | None:
        """Refit if the cadence elapsed; returns the new result or None."""
        if not self.due(records_seen):
            return None
        self.records_at_last_refit = records_seen
        return self.refit(assembler, now)

    def refit(self, assembler: CascadeAssembler,
              now: float) -> InfluenceResult | None:
        """Fit the current window unconditionally."""
        window_start = now - self.policy.window_seconds
        settled_before = now - self.policy.quiet_seconds
        cascades = assembler.cascades_between(window_start, settled_before)
        ecosystem = self.ecosystem
        corpus = select_urls(
            cascades,
            processes=ecosystem.processes,
            require_all=ecosystem.require_all,
            require_any=ecosystem.require_any,
        )[:self.policy.max_urls]
        self.last_corpus_size = len(corpus)
        registry = get_registry()
        registry.gauge(
            "repro_live_refit_corpus_urls",
            "URLs in the most recent windowed refit corpus.",
        ).set(len(corpus))
        if not corpus:
            return None
        refit_start = perf_counter()
        rng = np.random.default_rng(self.seed + self.n_refits)
        with span("live.refit", records=self.records_at_last_refit,
                  urls=len(corpus)):
            result = fit_corpus(corpus, self.config,
                                method=self.policy.method,
                                processes=ecosystem.processes,
                                rng=rng, n_jobs=self.policy.n_jobs)
        self.last_result = result
        self.n_refits += 1
        registry.histogram(
            "repro_live_refit_seconds",
            "Wall time of one windowed influence refit.",
        ).observe(perf_counter() - refit_start)
        return result

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """Cadence bookkeeping only; fits are recomputed, not persisted."""
        return {
            "n_refits": self.n_refits,
            "records_at_last_refit": self.records_at_last_refit,
        }

    def load_state(self, state: dict) -> None:
        self.n_refits = int(state["n_refits"])
        self.records_at_last_refit = int(state["records_at_last_refit"])
