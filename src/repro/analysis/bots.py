"""Bot detection and the bot-removal counterfactual (Section 3).

The paper observes that 13% of Twitter users share exclusively
alternative news and are "likely bots" [31], considers factoring bot
activity out with a BotOrNot-style classifier [7], and declines.  This
module operationalizes that discussion: a feature-based bot scorer in
the spirit of [7] (activity volume, posting regularity, retweet ratio,
category exclusivity) plus helpers to re-run any analysis on a
bot-filtered dataset — the ablation the paper left on the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collection.store import Dataset
from ..news.domains import NewsCategory


@dataclass(frozen=True)
class UserFeatures:
    """Per-account features extracted from the crawled dataset."""

    author_id: str
    n_posts: int
    posts_per_day: float
    alternative_fraction: float
    retweet_fraction: float
    #: Coefficient of variation of inter-post gaps; machines post on
    #: schedules, so low variability is bot-like.
    gap_cv: float
    unique_url_fraction: float


def extract_user_features(dataset: Dataset,
                          retweet_marker: str = "RT @",
                          ) -> list[UserFeatures]:
    """Compute :class:`UserFeatures` for every author in the dataset.

    ``retweet_marker`` identifies retweets from record ids — the crawled
    record does not carry tweet text, so callers with platform access
    should prefer :func:`extract_user_features_with_platform`.
    """
    per_user: dict[str, list] = {}
    for record in dataset:
        if record.author_id is None:
            continue
        per_user.setdefault(record.author_id, []).append(record)
    features = []
    for author_id, records in per_user.items():
        records.sort(key=lambda r: r.created_at)
        times = np.array([r.created_at for r in records])
        span_days = max((times[-1] - times[0]) / 86400.0, 1.0 / 24)
        n_alt = sum(len(r.urls_of(NewsCategory.ALTERNATIVE))
                    for r in records)
        n_main = sum(len(r.urls_of(NewsCategory.MAINSTREAM))
                     for r in records)
        urls = [u.url for r in records for u in r.urls]
        gaps = np.diff(times)
        positive = gaps[gaps > 0]
        if len(positive) >= 2 and positive.mean() > 0:
            gap_cv = float(positive.std() / positive.mean())
        else:
            gap_cv = 1.0
        features.append(UserFeatures(
            author_id=author_id,
            n_posts=len(records),
            posts_per_day=len(records) / span_days,
            alternative_fraction=(n_alt / (n_alt + n_main)
                                  if n_alt + n_main else 0.0),
            retweet_fraction=0.0,  # unknown without platform access
            gap_cv=gap_cv,
            unique_url_fraction=(len(set(urls)) / len(urls)
                                 if urls else 1.0),
        ))
    return features


def bot_score(features: UserFeatures) -> float:
    """Heuristic bot score in [0, 1].

    Monotone in: high posting rate, category exclusivity toward
    alternative news, mechanical (low-variability) posting gaps, and
    repetitive URL sharing.  Thresholding at 0.5 reproduces the spirit
    of the BotOrNot cutoff.
    """
    rate_component = min(features.posts_per_day / 20.0, 1.0)
    exclusivity = features.alternative_fraction
    regularity = max(0.0, 1.0 - features.gap_cv)
    repetition = 1.0 - features.unique_url_fraction
    volume = min(features.n_posts / 50.0, 1.0)
    score = (0.20 * rate_component
             + 0.45 * exclusivity * volume
             + 0.15 * regularity * volume
             + 0.20 * repetition)
    return float(min(max(score, 0.0), 1.0))


@dataclass(frozen=True)
class BotDetectionResult:
    """Detected bot accounts plus evaluation against ground truth."""

    scores: dict[str, float]
    detected: frozenset[str]
    threshold: float

    def filter_dataset(self, dataset: Dataset) -> Dataset:
        """Return the dataset without posts by detected bots."""
        return dataset.filter(
            lambda record: record.author_id not in self.detected)


def detect_bots(dataset: Dataset, threshold: float = 0.5,
                min_posts: int = 3) -> BotDetectionResult:
    """Score every author and flag those above ``threshold``.

    Accounts with fewer than ``min_posts`` posts are never flagged —
    there is not enough signal, and the paper's concern is high-volume
    amplification.
    """
    scores: dict[str, float] = {}
    detected = set()
    for features in extract_user_features(dataset):
        score = bot_score(features)
        scores[features.author_id] = score
        if features.n_posts >= min_posts and score >= threshold:
            detected.add(features.author_id)
    return BotDetectionResult(scores=scores,
                              detected=frozenset(detected),
                              threshold=threshold)


@dataclass(frozen=True)
class DetectionQuality:
    """Precision/recall against the world's ground-truth bot labels."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def evaluate_detection(result: BotDetectionResult,
                       true_bots: set[str],
                       all_authors: set[str]) -> DetectionQuality:
    """Compare detected accounts with ground-truth labels."""
    detected = set(result.detected) & all_authors
    actual = true_bots & all_authors
    return DetectionQuality(
        true_positives=len(detected & actual),
        false_positives=len(detected - actual),
        false_negatives=len(actual - detected),
    )
