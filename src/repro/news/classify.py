"""URL -> news-category classification.

This is the filtering step of Section 2.2: given raw post text, find the
URLs that point at one of the 99 news sites and label each mainstream or
alternative.  Non-news URLs are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import NewsCategory, NewsRegistry, default_registry
from .urls import canonicalize_url, extract_urls, registered_domain


@dataclass(frozen=True)
class ClassifiedUrl:
    """A canonical news URL with its registry labels."""

    url: str
    domain: str
    category: NewsCategory

    @property
    def is_alternative(self) -> bool:
        return self.category == NewsCategory.ALTERNATIVE


#: Entries each of a registry's memos (raw URLs here, post texts in
#: :func:`repro.collection.store.news_occurrences`) may hold before it
#: is cleared.  Collectors see each distinct URL and text several times
#: (one per repost), so a few thousand entries cover a whole world
#: while bounding memory.
#: Threads may race on the memo unlocked: every caller still gets a
#: correct result, and the cap is overshot by at most one entry each.
MEMO_CAP = 8192

_MISSING = object()


def classify_url(url: str,
                 registry: NewsRegistry | None = None) -> ClassifiedUrl | None:
    """Classify a single URL; returns ``None`` for non-news URLs.

    Results (``None`` included) are memoized per raw URL string on the
    registry, so a URL reposted many times is parsed once.
    """
    registry = registry or default_registry()
    memo = registry._classified
    result = memo.get(url, _MISSING)
    if result is _MISSING:
        result = _classify(url, registry)
        if len(memo) >= MEMO_CAP:
            memo.clear()
        memo[url] = result
    return result


def _classify(url: str, registry: NewsRegistry) -> ClassifiedUrl | None:
    host = registered_domain(url)
    if not host:
        return None
    entry = registry.lookup(host)
    if entry is None:
        return None
    return ClassifiedUrl(
        url=canonicalize_url(url),
        domain=entry.name,
        category=entry.category,
    )


def extract_news_urls(text: str,
                      registry: NewsRegistry | None = None,
                      ) -> list[ClassifiedUrl]:
    """Extract and classify every news URL in ``text``.

    Duplicate canonical URLs within one text are collapsed to a single
    entry (a post linking the same article twice is one occurrence).
    """
    registry = registry or default_registry()
    seen: dict[str, ClassifiedUrl] = {}
    for raw in extract_urls(text):
        classified = classify_url(raw, registry)
        if classified is not None and classified.url not in seen:
            seen[classified.url] = classified
    return list(seen.values())
