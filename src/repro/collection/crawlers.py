"""Reddit dump reader and 4chan crawler (Section 2.2).

Reddit data came from Pushshift dumps — complete, no gaps — so the
reader simply walks every post and comment.  The 4chan crawler polls
boards continuously; it has outage windows, and because threads are
ephemeral, posts whose thread is purged *and* permanently deleted while
the crawler is down are lost forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..config import FOURCHAN_GAPS
from ..news.classify import extract_news_urls
from ..news.domains import NewsRegistry, default_registry
from ..platforms.fourchan import ARCHIVE_RETENTION, FourchanPlatform
from ..platforms.generic import GenericPlatform
from ..platforms.reddit import RedditPlatform
from ..timeutil import Interval
from .store import Dataset, DatasetRecord, UrlOccurrence


@dataclass
class GenericCollector:
    """Dump-style reader for a scenario-declared generic platform."""

    registry: NewsRegistry = field(default_factory=default_registry)

    def stream(self, platform: GenericPlatform) -> Iterator[DatasetRecord]:
        """Yield news-URL records one at a time, in timestamp order."""
        for post in sorted(platform.posts, key=lambda p: p.created_at):
            news_urls = extract_news_urls(post.text, self.registry)
            if not news_urls:
                continue
            yield DatasetRecord(
                post_id=post.post_id,
                platform=platform.key,
                community=post.community,
                author_id=post.author_id,
                created_at=float(post.created_at),
                urls=tuple(
                    UrlOccurrence(url=u.url, domain=u.domain,
                                  category=u.category)
                    for u in news_urls
                ),
            )

    def collect(self, platform: GenericPlatform) -> Dataset:
        return Dataset(self.stream(platform))


@dataclass
class RedditDumpReader:
    """Reads every post and comment, Pushshift style."""

    registry: NewsRegistry = field(default_factory=default_registry)

    def stream(self, platform: RedditPlatform) -> Iterator[DatasetRecord]:
        """Yield news-URL records one at a time, in timestamp order."""
        items = [post.to_post() for post in platform.posts.values()]
        items.extend(comment.to_post()
                     for comment in platform.comments.values())
        items.sort(key=lambda p: p.created_at)
        for post in items:
            news_urls = extract_news_urls(post.text, self.registry)
            if not news_urls:
                continue
            yield DatasetRecord(
                post_id=post.post_id,
                platform="reddit",
                community=post.community,
                author_id=post.author_id,
                created_at=float(post.created_at),
                urls=tuple(
                    UrlOccurrence(url=u.url, domain=u.domain,
                                  category=u.category)
                    for u in news_urls
                ),
            )

    def collect(self, platform: RedditPlatform) -> Dataset:
        return Dataset(self.stream(platform))


@dataclass
class FourchanCrawler:
    """Continuously polls boards; loses posts that expire during outages.

    A post is recoverable if the crawler is up at any moment between the
    post's creation and its thread's permanent deletion (creation + the
    archive retention after purge).  With the paper's gap windows, only
    posts whose entire visibility window falls inside one gap are lost.
    """

    registry: NewsRegistry = field(default_factory=default_registry)
    gaps: Sequence[Interval] = FOURCHAN_GAPS

    def _lost(self, created_at: int, gone_at: int | None) -> bool:
        """True if the whole [created, gone) window sits inside one gap."""
        for gap in self.gaps:
            if gap.contains(created_at):
                if gone_at is not None and gone_at <= gap.end:
                    return True
        return False

    def stream(self, platform: FourchanPlatform,
               boards: Sequence[str] | None = None,
               ) -> Iterator[DatasetRecord]:
        """Yield news-URL records one at a time, in timestamp order."""
        board_names = ([b.strip("/") for b in boards] if boards
                       else list(platform.boards))
        posts = []
        for thread in platform.threads.values():
            if thread.board not in board_names:
                continue
            gone_at = None
            if thread.purged_at is not None:
                gone_at = thread.purged_at + ARCHIVE_RETENTION
            for post in thread.posts:
                if self._lost(post.created_at, gone_at):
                    continue
                posts.append(post)
        posts.sort(key=lambda p: p.created_at)
        for raw in posts:
            post = raw.to_post()
            news_urls = extract_news_urls(post.text, self.registry)
            if not news_urls:
                continue
            yield DatasetRecord(
                post_id=post.post_id,
                platform="4chan",
                community=post.community,
                author_id=None,
                created_at=float(post.created_at),
                urls=tuple(
                    UrlOccurrence(url=u.url, domain=u.domain,
                                  category=u.category)
                    for u in news_urls
                ),
            )

    def collect(self, platform: FourchanPlatform,
                boards: Sequence[str] | None = None) -> Dataset:
        return Dataset(self.stream(platform, boards))
