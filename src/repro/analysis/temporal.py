"""Temporal dynamics (Section 4): Figures 4-7 and Table 8.

All lag quantities follow the paper's conventions: within-platform
repost lags are measured from a URL's *first* occurrence to each later
occurrence; inter-arrival times are consecutive differences; and
cross-platform deltas compare first occurrences on pairs of platforms,
split by which platform saw the URL first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collection.store import Dataset
from ..news.domains import NewsCategory
from ..timeutil import SECONDS_PER_DAY, SECONDS_PER_HOUR
from .stats import Ecdf

# ---------------------------------------------------------------------------
# Figure 4 — daily occurrence time series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DailySeries:
    """Daily URL-occurrence series for one community slice."""

    name: str
    origin: int                    # epoch of day 0
    alternative: np.ndarray        # raw daily counts
    mainstream: np.ndarray

    @property
    def n_days(self) -> int:
        return len(self.alternative)

    def normalized(self, category: NewsCategory) -> np.ndarray:
        """Daily occurrences over the slice's average daily total URLs.

        The paper normalizes each community's daily news-URL count by
        that community's average daily number of shared URLs, making
        communities of very different sizes comparable.
        """
        counts = (self.alternative
                  if category == NewsCategory.ALTERNATIVE
                  else self.mainstream)
        average_daily_urls = (self.alternative + self.mainstream).mean()
        if average_daily_urls <= 0:
            return np.zeros_like(counts, dtype=np.float64)
        return counts / average_daily_urls

    def alternative_fraction(self) -> np.ndarray:
        """Figure 4(c): daily alt / (alt + main), NaN on empty days."""
        total = self.alternative + self.mainstream
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = self.alternative / total
        return np.where(total > 0, fraction, np.nan)


def daily_occurrence(dataset: Dataset, name: str, start: int,
                     end: int) -> DailySeries:
    """Build the Figure 4 daily series for one community slice."""
    n_days = max(1, int((end - start) // SECONDS_PER_DAY))
    alt = np.zeros(n_days, dtype=np.int64)
    main = np.zeros(n_days, dtype=np.int64)
    for record in dataset:
        day = int((record.created_at - start) // SECONDS_PER_DAY)
        if not 0 <= day < n_days:
            continue
        alt[day] += len(record.urls_of(NewsCategory.ALTERNATIVE))
        main[day] += len(record.urls_of(NewsCategory.MAINSTREAM))
    return DailySeries(name=name, origin=start, alternative=alt,
                       mainstream=main)


# ---------------------------------------------------------------------------
# Figure 5 — lag from first occurrence to each later occurrence
# ---------------------------------------------------------------------------

def repost_lag_cdf(dataset: Dataset, category: NewsCategory,
                   ) -> Ecdf | None:
    """Figure 5: hours from a URL's first post to each repost."""
    lags_hours: list[float] = []
    for times in dataset.url_timestamps(category).values():
        if len(times) < 2:
            continue
        first = times[0][0]
        lags_hours.extend((t - first) / SECONDS_PER_HOUR
                          for t, _ in times[1:])
    if not lags_hours:
        return None
    return Ecdf(lags_hours)


def repost_lag_day_inflection(ecdf: Ecdf) -> float:
    """CDF mass within 24 hours — the paper's day-boundary inflection."""
    return float(ecdf(24.0))


# ---------------------------------------------------------------------------
# Figure 6 — mean inter-arrival time per URL
# ---------------------------------------------------------------------------

def interarrival_cdf(dataset: Dataset, category: NewsCategory,
                     restrict_urls: set[str] | None = None) -> Ecdf | None:
    """Figure 6: per-URL mean of consecutive post gaps (seconds).

    ``restrict_urls`` implements the "common URLs" variants (a)/(b):
    pass the set of URLs that occur on all three platforms.
    """
    means: list[float] = []
    for url, times in dataset.url_timestamps(category).items():
        if restrict_urls is not None and url not in restrict_urls:
            continue
        if len(times) < 2:
            continue
        stamps = np.array([t for t, _ in times])
        means.append(float(np.diff(stamps).mean()))
    if not means:
        return None
    return Ecdf(means)


def common_urls(datasets: dict[str, Dataset],
                category: NewsCategory | None = None) -> set[str]:
    """URLs occurring in every provided dataset slice."""
    sets = [d.unique_urls(category) for d in datasets.values()]
    if not sets:
        return set()
    common = sets[0]
    for s in sets[1:]:
        common = common & s
    return common


# ---------------------------------------------------------------------------
# Figure 7 + Table 8 — cross-platform first-occurrence deltas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossPlatformLags:
    """Delays between first appearances on two platforms, one category."""

    platform_a: str
    platform_b: str
    category: NewsCategory
    #: Seconds from A's first post to B's, for URLs seen on A first.
    a_first: Ecdf | None
    #: Seconds from B's first post to A's, for URLs seen on B first.
    b_first: Ecdf | None
    n_a_first: int
    n_b_first: int

    def turning_share_24h(self) -> tuple[float, float]:
        """CDF mass within 24 h for each direction (the turning point)."""
        a = float(self.a_first(SECONDS_PER_DAY)) if self.a_first else 0.0
        b = float(self.b_first(SECONDS_PER_DAY)) if self.b_first else 0.0
        return a, b


def cross_platform_lags(dataset_a: Dataset, dataset_b: Dataset,
                        name_a: str, name_b: str,
                        category: NewsCategory) -> CrossPlatformLags:
    """Figure 7 / Table 8 for one platform pair and news category."""
    firsts_a = {url: times[0][0] for url, times
                in dataset_a.url_timestamps(category).items()}
    firsts_b = {url: times[0][0] for url, times
                in dataset_b.url_timestamps(category).items()}
    a_first: list[float] = []
    b_first: list[float] = []
    for url in firsts_a.keys() & firsts_b.keys():
        delta = firsts_b[url] - firsts_a[url]
        if delta > 0:
            a_first.append(delta)
        elif delta < 0:
            b_first.append(-delta)
        # simultaneous first appearance contributes to neither side
    return CrossPlatformLags(
        platform_a=name_a,
        platform_b=name_b,
        category=category,
        a_first=Ecdf(a_first) if a_first else None,
        b_first=Ecdf(b_first) if b_first else None,
        n_a_first=len(a_first),
        n_b_first=len(b_first),
    )


@dataclass(frozen=True)
class FasterCountsRow:
    """One Table 8 row: which platform saw URLs first, and how often."""

    comparison: str
    category: NewsCategory
    faster_on_1: int
    faster_on_2: int


def faster_platform_counts(pairs: dict[str, tuple[Dataset, Dataset]],
                           ) -> list[FasterCountsRow]:
    """Table 8 across the provided platform pairs.

    ``pairs`` maps a comparison label like ``"Reddit vs Twitter"`` to the
    ``(platform_1, platform_2)`` dataset slices.
    """
    rows = []
    for label, (ds1, ds2) in pairs.items():
        for category in (NewsCategory.MAINSTREAM, NewsCategory.ALTERNATIVE):
            lags = cross_platform_lags(ds1, ds2, "1", "2", category)
            rows.append(FasterCountsRow(
                comparison=label,
                category=category,
                faster_on_1=lags.n_a_first,
                faster_on_2=lags.n_b_first,
            ))
    return rows
