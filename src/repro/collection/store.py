"""The dataset store: crawled records keyed the way the analyses need.

A :class:`DatasetRecord` is one crawled post/comment/tweet that contains
at least one news URL; a :class:`Dataset` is an ordered collection with
JSONL persistence and the groupings (per community, per URL, per user)
every analysis module consumes.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from ..news import classify
from ..news.domains import NewsCategory, NewsRegistry


@dataclass(frozen=True)
class UrlOccurrence:
    """One news URL found in one post."""

    url: str
    domain: str
    category: NewsCategory


def news_occurrences(text: str,
                     registry: NewsRegistry) -> tuple[UrlOccurrence, ...]:
    """The news URLs a collector stores for a post whose text is ``text``.

    Empty when the text links no news site (the collector drops the
    post).  Memoized per text string on the registry, the way
    :func:`~repro.news.classify.classify_url` memoizes raw URLs: most
    posts repost a few story texts, so each distinct text is parsed
    once and its records share one frozen tuple.
    """
    memo = registry._occurrences
    occurrences = memo.get(text)
    if occurrences is None:
        occurrences = tuple(
            UrlOccurrence(url=u.url, domain=u.domain, category=u.category)
            for u in classify.extract_news_urls(text, registry))
        if len(memo) >= classify.MEMO_CAP:
            memo.clear()
        memo[text] = occurrences
    return occurrences


@dataclass(frozen=True)
class DatasetRecord:
    """One crawled post containing news URLs.

    ``community`` is the fine-grained venue: a subreddit name, a 4chan
    board like ``"/pol/"``, or ``"Twitter"``.  ``platform`` is the
    coarse service name (``twitter`` / ``reddit`` / ``4chan``).
    """

    post_id: str
    platform: str
    community: str
    author_id: str | None
    created_at: float
    urls: tuple[UrlOccurrence, ...]

    def urls_of(self, category: NewsCategory) -> tuple[UrlOccurrence, ...]:
        return tuple(u for u in self.urls if u.category == category)

    def to_json(self) -> str:
        payload = {
            "post_id": self.post_id,
            "platform": self.platform,
            "community": self.community,
            "author_id": self.author_id,
            "created_at": self.created_at,
            "urls": [
                {"url": u.url, "domain": u.domain,
                 "category": u.category.value}
                for u in self.urls
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "DatasetRecord":
        payload = json.loads(line)
        return cls(
            post_id=payload["post_id"],
            platform=payload["platform"],
            community=payload["community"],
            author_id=payload["author_id"],
            created_at=payload["created_at"],
            urls=tuple(
                UrlOccurrence(url=u["url"], domain=u["domain"],
                              category=NewsCategory(u["category"]))
                for u in payload["urls"]
            ),
        )


class Dataset:
    """An append-only collection of crawled records with index helpers."""

    def __init__(self, records: Iterable[DatasetRecord] = ()) -> None:
        self.records: list[DatasetRecord] = list(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[DatasetRecord]:
        return iter(self.records)

    def add(self, record: DatasetRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[DatasetRecord]) -> None:
        self.records.extend(records)

    # -- groupings ----------------------------------------------------------

    def filter(self, predicate: Callable[[DatasetRecord], bool]) -> "Dataset":
        return Dataset(r for r in self.records if predicate(r))

    def url_timestamps(self, category: NewsCategory | None = None,
                       ) -> dict[str, list[tuple[float, str]]]:
        """url -> sorted [(timestamp, community)] across all records."""
        occurrences: dict[str, list[tuple[float, str]]] = {}
        for record in self.records:
            for occurrence in record.urls:
                if category is not None and occurrence.category != category:
                    continue
                occurrences.setdefault(occurrence.url, []).append(
                    (record.created_at, record.community))
        for url in occurrences:
            occurrences[url].sort()
        return occurrences

    def url_categories(self) -> dict[str, NewsCategory]:
        categories: dict[str, NewsCategory] = {}
        for record in self.records:
            for occurrence in record.urls:
                categories.setdefault(occurrence.url, occurrence.category)
        return categories

    def unique_urls(self, category: NewsCategory | None = None) -> set[str]:
        urls: set[str] = set()
        for record in self.records:
            for occurrence in record.urls:
                if category is None or occurrence.category == category:
                    urls.add(occurrence.url)
        return urls

    def url_post_count(self, category: NewsCategory | None = None) -> int:
        """Number of posts containing at least one URL of ``category``."""
        if category is None:
            return len(self.records)
        return sum(1 for r in self.records if r.urls_of(category))

    # -- persistence ----------------------------------------------------------

    def save_jsonl(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(record.to_json())
                handle.write("\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "Dataset":
        return cls(iter_jsonl(path))


class MalformedRecordError(ValueError):
    """A JSONL line could not be parsed into a :class:`DatasetRecord`."""


class TruncatedRecordError(MalformedRecordError):
    """The final JSONL line is an incomplete write (no trailing newline).

    A crashed or still-running writer leaves a partial last line; unlike
    a malformed record mid-file, this is expected after an unclean
    shutdown and callers often want to skip it and resume appending.
    """


def _source_family(path: Path) -> str:
    """Collapse shard-numbered files onto one metric label.

    ``tweets-00017.jsonl``, ``tweets-00018.jsonl`` and ``tweets.jsonl``
    all report as ``tweets``, the same way the quarantine metrics label
    by source rather than by individual file, so per-shard filenames
    don't explode the label space.
    """
    stem = path.stem
    return re.sub(r"[-_.#]*\d[\d\-_.#]*$", "", stem) or stem


def _iter_jsonl_rows(path: Path, on_malformed: str,
                     ) -> Iterator[DatasetRecord]:
    family = _source_family(path)
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                yield DatasetRecord.from_json(line)
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                truncated = not raw.endswith("\n")
                if on_malformed == "raise":
                    if truncated:
                        raise TruncatedRecordError(
                            f"{path}:{lineno}: truncated final record "
                            f"(file ends mid-line; incomplete write?): "
                            f"{type(exc).__name__}: {exc}") from exc
                    raise MalformedRecordError(
                        f"{path}:{lineno}: malformed record: "
                        f"{type(exc).__name__}: {exc}") from exc
                from ..obs import get_registry
                reason = "truncated" if truncated else "malformed"
                get_registry().counter(
                    "repro_ingest_malformed_total",
                    "JSONL lines skipped because they failed to parse.",
                    source=family, reason=reason).inc()
                logging.getLogger("repro.collection").warning(
                    "skipping %s record at %s:%d (%s: %s)",
                    reason, path, lineno, type(exc).__name__, exc)


def iter_jsonl(path: str | Path, *,
               on_malformed: str = "raise",
               ) -> Iterator[DatasetRecord]:
    """Stream records from a JSONL file one line at a time.

    Never materializes the whole file; usable directly as an event-bus
    source for replaying a saved dataset (see :mod:`repro.live.bus`).

    ``on_malformed`` controls what happens when a line does not parse:

    * ``"raise"`` (default) — raise :class:`MalformedRecordError`
      naming the file and line number, or the sharper
      :class:`TruncatedRecordError` when the bad line is the *last*
      line and lacks its trailing newline (the signature of a torn
      final write).
    * ``"skip"`` — log a warning, count the line in
      ``repro_ingest_malformed_total{source,reason}`` (``source`` is
      the file's shard family: ``tweets-00017`` counts as ``tweets``),
      and continue with the next.

    An unknown ``on_malformed`` raises here, before the file is read.
    """
    if on_malformed not in ("raise", "skip"):
        raise ValueError(f"on_malformed must be 'raise' or 'skip', "
                         f"not {on_malformed!r}")
    return _iter_jsonl_rows(Path(path), on_malformed)
