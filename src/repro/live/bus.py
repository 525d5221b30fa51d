"""The streaming event bus: many sources, one timestamp-ordered stream.

The paper's infrastructure consumed three live feeds at once — the
Twitter 1% sample, Reddit dumps, and a 4chan crawler.  The bus models
that: each source is a plain iterator of
:class:`~repro.collection.store.DatasetRecord` (internally timestamp
ordered, which every collector's ``stream()`` guarantees), and the bus
k-way merges them into one globally ordered stream with a bounded
heap — O(log S) per record for S sources, never materializing a feed.
A source that steps back in time raises ``ValueError`` instead of being
silently reordered.
"""

from __future__ import annotations

import heapq
from pathlib import Path
from typing import Iterable, Iterator

from ..collection.store import Dataset, DatasetRecord, iter_jsonl
from ..obs import get_registry

#: A named feed of records: (source name, iterator).
Source = tuple[str, Iterator[DatasetRecord]]


class EventBus:
    """Merges named record sources into one timestamp-ordered stream.

    Ties are broken by source registration order, then by arrival order
    within the source, so the merge is fully deterministic.
    """

    def __init__(self, sources: Iterable[Source] = ()) -> None:
        self._sources: list[Source] = []
        for name, iterator in sources:
            self.add_source(name, iterator)

    def add_source(self, name: str,
                   records: Iterable[DatasetRecord]) -> None:
        if any(existing == name for existing, _ in self._sources):
            raise ValueError(f"duplicate source name {name!r}")
        self._sources.append((name, iter(records)))

    def __iter__(self) -> Iterator[DatasetRecord]:
        for _, record in self.events():
            yield record

    def events(self) -> Iterator[tuple[str, DatasetRecord]]:
        """Yield ``(source name, record)`` in global timestamp order."""
        depth = get_registry().gauge(
            "repro_live_merge_depth",
            "Sources currently alive in the k-way merge heap.")
        heap: list[tuple[float, int, int, DatasetRecord, str,
                         Iterator[DatasetRecord]]] = []
        for index, (name, iterator) in enumerate(self._sources):
            record = next(iterator, None)
            if record is not None:
                heapq.heappush(
                    heap, (record.created_at, index, 0, record, name,
                           iterator))
        depth.set(len(heap))
        while heap:
            when, index, seq, record, name, iterator = heapq.heappop(heap)
            yield name, record
            following = next(iterator, None)
            if following is not None:
                if following.created_at < when:
                    raise ValueError(
                        f"source {name!r} is not timestamp-ordered: "
                        f"{following.created_at} after {when}")
                heapq.heappush(
                    heap, (following.created_at, index, seq + 1, following,
                           name, iterator))
            else:  # a source ran dry: the merge narrowed
                depth.set(len(heap))


# ---------------------------------------------------------------------------
# Ready-made sources
# ---------------------------------------------------------------------------

def dataset_source(dataset: Dataset | Iterable[DatasetRecord],
                   ) -> Iterator[DatasetRecord]:
    """Replay an in-memory dataset in timestamp order."""
    return iter(sorted(dataset, key=lambda r: r.created_at))


def jsonl_source(path: str | Path) -> Iterator[DatasetRecord]:
    """Replay a saved JSONL dataset, line by line.

    Saved datasets are written in collection order (already timestamp
    ordered per platform), so the stream can feed the bus directly
    without loading the file into memory.
    """
    return iter_jsonl(path)
