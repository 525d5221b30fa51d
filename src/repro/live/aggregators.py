"""Incremental aggregators mirroring the paper's headline measurements.

Each aggregator consumes one :class:`~repro.collection.store.DatasetRecord`
at a time via ``update()``, keeps state proportional to the number of
distinct keys (domains, URLs), and answers queries without rescanning
the stream.  The query paths reuse the *same* row-building functions as
the batch analyses (:mod:`repro.analysis.characterization`,
:mod:`repro.analysis.sequences`), so after consuming an identical record
stream the live answers are exactly the batch answers.

All aggregators round-trip through ``state_dict()`` / ``load_state()``
for checkpointing (see :mod:`repro.live.checkpoint`).
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from typing import Callable, Iterable

from ..analysis import characterization as chz
from ..analysis import sequences as seq
from ..collection.store import DatasetRecord
from ..config import HAWKES_PROCESSES, SEQUENCE_PLATFORMS
from ..core.influence import UrlCascade
from ..news.domains import NewsCategory

#: record -> coarse slice name (or None); the default is the paper's
#: fixed three-way split.  K-platform scenarios pass their
#: :meth:`repro.platforms.registry.Ecosystem.slice_of` instead.
SliceOf = Callable[[DatasetRecord], "str | None"]


class _SlicedCounterAggregator:
    """Per-slice, per-category occurrence counters over one record key.

    Subclasses pick the counted key (domain, URL) via :meth:`_key` and
    layer query methods on top of ``self.counters``.
    """

    def __init__(self, slices: Iterable[str] = SEQUENCE_PLATFORMS,
                 slice_of: SliceOf | None = None) -> None:
        self.slice_of = (slice_of if slice_of is not None
                         else chz.sequence_slice_of)
        self.counters: dict[str, dict[NewsCategory, Counter]] = {
            name: {category: Counter() for category in NewsCategory}
            for name in slices
        }

    @staticmethod
    def _key(occurrence) -> str:
        raise NotImplementedError

    def update(self, record: DatasetRecord) -> None:
        slice_name = self.slice_of(record)
        if slice_name is None or slice_name not in self.counters:
            return
        per_category = self.counters[slice_name]
        for occurrence in record.urls:
            self._tally(per_category, occurrence)

    def _tally(self, per_category: dict[NewsCategory, Counter],
               occurrence) -> None:
        per_category[occurrence.category][self._key(occurrence)] += 1

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            name: {category.value: dict(counter)
                   for category, counter in per_category.items()}
            for name, per_category in self.counters.items()
        }

    def load_state(self, state: dict) -> None:
        self.counters = {
            name: {NewsCategory(value): Counter(counts)
                   for value, counts in per_category.items()}
            for name, per_category in state.items()
        }


class DomainFractionAggregator(_SlicedCounterAggregator):
    """Per-slice domain occurrence counts (Tables 5-7, Figure 2)."""

    @staticmethod
    def _key(occurrence) -> str:
        return occurrence.domain

    def top_domains(self, slice_name: str, category: NewsCategory,
                    top_n: int = 20) -> list[chz.RankedShare]:
        """Tables 5-7 rows for one slice, identical to batch."""
        return chz.ranked_shares(self.counters[slice_name][category], top_n)

    def platform_fractions(self, category: NewsCategory, top_n: int = 20,
                           ) -> list[chz.DomainPlatformShare]:
        """Figure 2 rows across all slices, identical to batch."""
        return chz.domain_fractions_from_counters(
            {name: per_category[category]
             for name, per_category in self.counters.items()},
            top_n)


class UrlAppearanceAggregator(_SlicedCounterAggregator):
    """Per-slice URL appearance counts (Figure 1)."""

    def __init__(self, slices: Iterable[str] = SEQUENCE_PLATFORMS,
                 slice_of: SliceOf | None = None) -> None:
        super().__init__(slices, slice_of)
        self._seen: dict[NewsCategory, set[str]] = {
            category: set() for category in NewsCategory}

    @staticmethod
    def _key(occurrence) -> str:
        return occurrence.url

    def _tally(self, per_category: dict[NewsCategory, Counter],
               occurrence) -> None:
        super()._tally(per_category, occurrence)
        self._seen[occurrence.category].add(occurrence.url)

    def appearance_cdf(self, slice_name: str, category: NewsCategory):
        """Figure 1 ECDF for one slice, identical to batch."""
        return chz.appearance_cdf_from_counter(
            self.counters[slice_name][category])

    def distinct_urls(self, category: NewsCategory | None = None) -> int:
        """O(1) per category — backed by running sets, not a rescan."""
        if category is not None:
            return len(self._seen[category])
        return sum(len(urls) for urls in self._seen.values())

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._seen = {category: set() for category in NewsCategory}
        for per_category in self.counters.values():
            for category, counter in per_category.items():
                self._seen[category].update(counter)


class FirstHopAggregator:
    """Cross-platform first appearances (Tables 9-10).

    Maintains ``url -> {slice: earliest timestamp}`` per category — the
    exact structure :func:`repro.analysis.sequences.first_appearances`
    computes by batch scan — updated with a running minimum.
    """

    def __init__(self, slices: Iterable[str] = SEQUENCE_PLATFORMS,
                 slice_of: SliceOf | None = None) -> None:
        self.slices = tuple(slices)
        self.slice_of = (slice_of if slice_of is not None
                         else chz.sequence_slice_of)
        self.firsts: dict[NewsCategory, dict[str, dict[str, float]]] = {
            category: {} for category in NewsCategory
        }

    def update(self, record: DatasetRecord) -> None:
        slice_name = self.slice_of(record)
        if slice_name is None:
            return
        when = record.created_at
        for occurrence in record.urls:
            platform_firsts = self.firsts[occurrence.category].setdefault(
                occurrence.url, {})
            previous = platform_firsts.get(slice_name)
            if previous is None or when < previous:
                platform_firsts[slice_name] = when

    # -- queries ------------------------------------------------------------

    def first_hop(self, category: NewsCategory) -> list[seq.SequenceShare]:
        """Table 9 rows, identical to batch."""
        return seq.first_hop_rows(self.firsts[category])

    def triplets(self, category: NewsCategory) -> list[seq.SequenceShare]:
        """Table 10 rows, identical to batch — over all K slices."""
        return seq.triplet_rows(self.firsts[category],
                                n_platforms=len(self.slices))

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            category.value: {url: dict(platform_firsts)
                             for url, platform_firsts in firsts.items()}
            for category, firsts in self.firsts.items()
        }

    def load_state(self, state: dict) -> None:
        self.firsts = {
            NewsCategory(value): {
                url: dict(platform_firsts)
                for url, platform_firsts in firsts.items()
            }
            for value, firsts in state.items()
        }


class CascadeAssembler:
    """Online per-URL cascade assembly feeding :mod:`repro.core.influence`.

    Keeps, per URL, the sorted ``(timestamp, process)`` events over the
    K Hawkes processes (the paper's eight by default).  Insertion keeps
    the list ordered (bisect), so a query materializes cascades without
    re-sorting — the same ``(t, process)`` tuples batch
    :func:`repro.pipeline.influence_cascades` produces.  ``process_of``
    routes communities to processes (a K-platform ecosystem's
    :meth:`~repro.platforms.registry.Ecosystem.process_of`); by default
    a community is its own process, as in the paper.
    """

    def __init__(self,
                 processes: Iterable[str] = HAWKES_PROCESSES,
                 process_of: Callable[[str], "str | None"] | None = None,
                 ) -> None:
        self.processes = frozenset(processes)
        self.process_of = process_of
        self.events: dict[str, list[tuple[float, str]]] = {}
        self.categories: dict[str, NewsCategory] = {}

    def update(self, record: DatasetRecord) -> None:
        process = (self.process_of(record.community)
                   if self.process_of is not None else record.community)
        if process is None or process not in self.processes:
            return
        when = record.created_at
        for occurrence in record.urls:
            url = occurrence.url
            self.categories.setdefault(url, occurrence.category)
            insort(self.events.setdefault(url, []),
                   (when, process))

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def cascade_of(self, url: str) -> UrlCascade | None:
        events = self.events.get(url)
        if not events:
            return None
        return UrlCascade(url=url, category=self.categories[url],
                          events=tuple(events))

    def cascades(self) -> list[UrlCascade]:
        """All assembled cascades, in URL first-seen order."""
        return [UrlCascade(url=url, category=self.categories[url],
                           events=tuple(events))
                for url, events in self.events.items()]

    def cascades_between(self, start: float, end: float,
                         ) -> list[UrlCascade]:
        """Cascades whose *last* event falls inside ``[start, end]``.

        This is the sliding-window selection the Hawkes refitter uses:
        a cascade is "settled" once its last event is older than the
        quiet horizon, and stays in scope while it is newer than the
        window start.
        """
        kept = []
        for url, events in self.events.items():
            if events and start <= events[-1][0] <= end:
                kept.append(self.cascade_of(url))
        return kept

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "events": {url: [[t, name] for t, name in events]
                       for url, events in self.events.items()},
            "categories": {url: category.value
                           for url, category in self.categories.items()},
        }

    def load_state(self, state: dict) -> None:
        self.events = {
            url: [(float(t), str(name)) for t, name in events]
            for url, events in state["events"].items()
        }
        self.categories = {url: NewsCategory(value)
                           for url, value in state["categories"].items()}
