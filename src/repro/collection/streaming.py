"""The Twitter Streaming-API collector (Section 2.2).

The paper collected the 1% public sample filtered to tweets carrying
URLs from the 99 news domains, with several multi-day outages.  The
collector walks the platform firehose in timestamp order, applies the
Bernoulli sample, skips outage windows, and keeps tweets whose text
contains a news URL.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..config import TWITTER_GAPS
from ..news.domains import NewsRegistry, default_registry
from ..platforms.twitter import TwitterPlatform
from ..timeutil import Interval, in_any_interval
from .store import Dataset, DatasetRecord, news_occurrences


@dataclass
class TwitterStreamCollector:
    """Samples the firehose into a news-URL dataset.

    ``sample_rate`` is the streaming sample fraction.  The default is 1.0
    because the synthetic world is already volume-scaled; set 0.01 to
    model the 1% sample explicitly on a full-scale world.
    """

    registry: NewsRegistry = field(default_factory=default_registry)
    gaps: Sequence[Interval] = TWITTER_GAPS
    sample_rate: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.sample_rate <= 1:
            raise ValueError("sample_rate must be in (0, 1]")

    def stream(self, platform: TwitterPlatform) -> Iterator[DatasetRecord]:
        """Yield news-URL records one at a time, in timestamp order.

        Each call samples with a fresh ``Random(seed)``, so repeated
        streams of the same firehose are identical — the deterministic
        replay that checkpoint resume relies on.
        """
        rng = random.Random(self.seed)
        for tweet in sorted(platform.firehose, key=lambda t: t.created_at):
            if in_any_interval(tweet.created_at, self.gaps):
                continue
            if (self.sample_rate < 1.0
                    and rng.random() >= self.sample_rate):
                continue
            urls = news_occurrences(tweet.text, self.registry)
            if not urls:
                continue
            yield DatasetRecord(
                post_id=tweet.tweet_id,
                platform="twitter",
                community="Twitter",
                author_id=tweet.user_id,
                created_at=float(tweet.created_at),
                urls=urls,
            )

    def collect(self, platform: TwitterPlatform) -> Dataset:
        """Stream the platform's tweets into a dataset."""
        return Dataset(self.stream(platform))
