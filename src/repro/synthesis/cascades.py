"""Ground-truth cascade generation per story.

Two story kinds:

* **viral** stories run a full multivariate Hawkes cascade over all
  communities, with the paper-calibrated ground truth of
  :mod:`repro.synthesis.params`;
* **local** stories stay on a single "home" platform with a couple of
  posts — these produce the single-platform bulk of Table 9.

Both kinds can later be "recycled": reposted weeks or months after the
original burst, which creates the long CDF tails of Figures 5 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SELECTED_SUBREDDITS, STUDY_END
from ..core.hawkes import HawkesParams, simulate_branching
from ..core.hawkes.simulation import LagSampler
from ..news.articles import Article
from ..sampling import CategoricalCDF
from .diurnal import DiurnalProfile, apply_diurnal
from .params import (
    GroundTruth,
    PAPER_EVENT_COUNTS_ALTERNATIVE,
    PAPER_EVENT_COUNTS_MAINSTREAM,
)

#: Subreddit mix (Table 11 event counts) for local Reddit stories.
_SUBREDDIT_DRAWS = {
    alternative: CategoricalCDF(weights / weights.sum())
    for alternative, weights in (
        (True, PAPER_EVENT_COUNTS_ALTERNATIVE[:6].astype(float)),
        (False, PAPER_EVENT_COUNTS_MAINSTREAM[:6].astype(float)))
}


@dataclass(frozen=True)
class StoryCascade:
    """All synthetic posting events of one article across communities."""

    article: Article
    #: (epoch_seconds, process_name) pairs, sorted by time.
    events: tuple[tuple[float, str], ...]
    viral: bool

    @property
    def url(self) -> str:
        return self.article.url


class _StoryParams(HawkesParams):
    """One viral story's parameters around the engine's shared impulse,
    which :class:`CascadeEngine` validates once when it is built."""

    def _check_impulse(self) -> None:
        pass


class CascadeEngine:
    """Generates :class:`StoryCascade` objects from the ground truth."""

    def __init__(self, ground_truth: GroundTruth,
                 rng: np.random.Generator,
                 study_end: int = STUDY_END) -> None:
        self.truth = ground_truth
        self.rng = rng
        self.study_end = study_end
        self._impulse = ground_truth.impulse()
        # Every viral story shares this impulse: validate it once here.
        HawkesParams(background=ground_truth.background(False),
                     weights=ground_truth.weights(False),
                     impulse=self._impulse)
        self._lags = LagSampler(self._impulse)
        self._diurnal = (DiurnalProfile()
                         if ground_truth.diurnal_enabled else None)
        self._local_homes = ("Twitter", "reddit-six", "/pol/",
                             "Reddit-other", "4chan-other")
        if len(ground_truth.local_home_probs) != len(self._local_homes):
            raise ValueError(
                f"local_home_probs needs {len(self._local_homes)} values")
        self._home_draw = CategoricalCDF(ground_truth.local_home_probs)

    # -- public API --------------------------------------------------------

    def draw_viral(self) -> bool:
        """Decide whether the next story is viral."""
        return bool(self.rng.random() < self.truth.viral_fraction)

    def pick_local_home(self, alternative: bool) -> str:
        """Draw the home community of a local story."""
        return self._pick_local_home(alternative)

    def generate(self, article: Article, viral: bool | None = None,
                 home: str | None = None,
                 flavor: str | None = None,
                 virality_boost: float = 1.0) -> StoryCascade:
        """Generate the full cascade of one article.

        ``viral``, ``home``, and ``flavor`` may be pre-drawn by the
        caller (the world generator does this so it can correlate the
        article's domain with where the story lands); all default to
        fresh draws.  ``flavor`` is a platform group (``"twitter"``,
        ``"reddit"``, ``"pol"``) a viral story leans toward.
        """
        if viral is None:
            viral = self.draw_viral()
        if viral:
            events = self._viral_events(article, flavor, virality_boost)
        else:
            if home is None:
                home = self._pick_local_home(article.is_alternative)
            events = self._local_events(article, home)
        if not events:  # every story is posted at least once
            events = [(float(article.published_at),
                       self._pick_local_home(article.is_alternative))]
        events = self._recycle(events)
        if self._diurnal is not None:
            events = apply_diurnal(events, self.rng, self._diurnal)
        events = [(t, name) for t, name in events if t < self.study_end]
        if not events:
            events = [(float(min(article.published_at, self.study_end - 1)),
                       self._pick_local_home(article.is_alternative))]
        events.sort()
        return StoryCascade(article=article, events=tuple(events),
                            viral=viral)

    # -- viral stories -----------------------------------------------------

    def _flavor_boost(self, flavor: str | None) -> np.ndarray:
        """Background multipliers leaning a viral story toward a group.

        Platform-exclusive domains (Figure 2) exist because even viral
        stories have a home turf; flavored stories emit more events on
        their group's communities and fewer elsewhere.
        """
        k = len(self.truth.processes)
        boost = np.ones(k)
        if flavor is None:
            return boost
        extras = set(self.truth.extra_platform_names)
        groups = {
            "twitter": [self.truth.processes.index("Twitter")],
            "pol": [self.truth.processes.index("/pol/"),
                    self.truth.processes.index("4chan-other")],
            "reddit": [i for i, name in enumerate(self.truth.processes)
                       if name not in ("Twitter", "/pol/", "4chan-other")
                       and name not in extras],
        }
        # Scenario extras form their own flavor groups, one per platform.
        for i, name in enumerate(self.truth.processes):
            if name in extras:
                groups[name] = [i]
        boost *= self.truth.flavor_damp
        boost[groups[flavor]] = self.truth.flavor_boost
        return boost

    def _viral_events(self, article: Article,
                      flavor: str | None = None,
                      virality_boost: float = 1.0,
                      ) -> list[tuple[float, str]]:
        truth = self.truth
        window = self._draw_window_minutes()
        virality = virality_boost * self.rng.lognormal(
            truth.virality_log_mean, truth.virality_log_sigma)
        params = _StoryParams(
            background=(truth.background(article.is_alternative)
                        * virality * self._flavor_boost(flavor)),
            weights=truth.weights(article.is_alternative),
            impulse=self._impulse,
        )
        simulated = simulate_branching(params, n_bins=window, rng=self.rng,
                                       lags=self._lags)
        # One event per count, jittered uniformly within its minute.
        counts = simulated.counts
        bases = article.published_at + 60.0 * np.repeat(simulated.bins,
                                                        counts)
        times = bases + self.rng.uniform(0, 60, size=len(bases))
        names = [truth.processes[k] for k in
                 np.repeat(simulated.processes, counts).tolist()]
        return list(zip(times.tolist(), names))

    def _draw_window_minutes(self) -> int:
        truth = self.truth
        window = self.rng.lognormal(truth.window_log_mean,
                                    truth.window_log_sigma)
        return int(np.clip(window, truth.min_window_minutes,
                           truth.max_window_minutes))

    # -- local stories -----------------------------------------------------

    def _pick_local_home(self, alternative: bool) -> str:
        name = self._local_homes[self._home_draw.draw(self.rng)]
        if name == "reddit-six":
            idx = _SUBREDDIT_DRAWS[alternative].draw(self.rng)
            return SELECTED_SUBREDDITS[idx]
        return name

    def _local_events(self, article: Article,
                      home: str) -> list[tuple[float, str]]:
        # Total home posts ~ geometric with mean 1 + local_extra_posts_mean;
        # the first is the story's initial appearance.
        n_extra = self.rng.geometric(
            1.0 / (1.0 + self.truth.local_extra_posts_mean)) - 1
        events = [(float(article.published_at), home)]
        repost_hours = (self.truth.local_repost_hours_twitter
                        if home == "Twitter"
                        else self.truth.local_repost_hours_other)
        for _ in range(n_extra):
            lag = self.rng.exponential(repost_hours * 3600.0)
            events.append((article.published_at + lag, home))
        if self.rng.random() < self.truth.local_leak_prob:
            other = self._pick_local_home(article.is_alternative)
            if other != home:
                lag = self.rng.exponential(24 * 3600.0)
                events.append((article.published_at + lag, other))
        return events

    # -- recycling ---------------------------------------------------------

    def _recycle(self, events: list[tuple[float, str]],
                 ) -> list[tuple[float, str]]:
        """Possibly repost the URL long after the original burst."""
        if not events or self.rng.random() >= self.truth.recycle_prob:
            return events
        last = max(t for t, _ in events)
        horizon = min(self.study_end,
                      last + self.truth.recycle_horizon_days * 86400.0)
        if horizon <= last + 3600:
            return events
        present = sorted({name for _, name in events})
        extra = int(self.rng.integers(1, self.truth.recycle_max_posts + 1))
        recycled = list(events)
        for _ in range(extra):
            name = present[int(self.rng.integers(0, len(present)))]
            t = float(self.rng.uniform(last + 3600, horizon))
            recycled.append((t, name))
        return recycled
