"""Shared platform primitives.

Every platform ultimately produces :class:`Post` records — the common
currency the collection layer stores and the analyses consume.  A post
knows its platform, community (subreddit, board, or ``"twitter"``),
author (``None`` on anonymous 4chan), timestamp, and raw text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Post:
    """The minimal record the measurement pipeline operates on."""

    post_id: str
    platform: str
    community: str
    author_id: str | None
    created_at: int
    text: str

    def __post_init__(self) -> None:
        if self.created_at < 0:
            raise ValueError("created_at must be non-negative")


class IdAllocator:
    """Monotonic string-id factory, one namespace per prefix."""

    def __init__(self) -> None:
        self._counters: dict[str, itertools.count] = {}

    def next_id(self, prefix: str) -> str:
        counter = self._counters.setdefault(prefix, itertools.count(1))
        return f"{prefix}{next(counter)}"
