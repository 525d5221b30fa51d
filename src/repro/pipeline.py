"""End-to-end pipeline: world -> collection -> analysis inputs.

This module wires the pieces together the way the paper's study ran:
generate (or obtain) the platforms, crawl them into datasets, slice the
datasets into the community splits every table uses, and assemble the
per-URL cascades for the Hawkes influence experiment.

The preferred public surface is :class:`repro.Study` (:mod:`repro.api`),
which calls these pure compute functions (:func:`collect`,
:func:`influence_cascades`) as stages, adding dependency tracking and a
content-addressed artifact cache.  :func:`stream_sources` feeds the
same collectors to the live event bus one record at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .analysis import characterization as chz
from .collection import (
    Dataset,
    DatasetRecord,
    FourchanCrawler,
    GenericCollector,
    RedditDumpReader,
    RecrawlStats,
    TweetRecrawler,
    TwitterStreamCollector,
)
from .platforms.registry import PAPER_ECOSYSTEM, Ecosystem
from .config import PLATFORM_POL, PLATFORM_REDDIT, PLATFORM_TWITTER
from .core.influence import UrlCascade
from .synthesis.world import World, WorldConfig


def _total_posts(world: World) -> dict[str, int]:
    """Every platform's post count, news or not (Table 1's totals)."""
    totals = {"twitter": world.twitter.total_posts,
              "reddit": world.reddit.total_posts,
              "4chan": world.fourchan.total_posts}
    totals.update((key, platform.total_posts)
                  for key, platform in world.extras.items())
    return totals


@dataclass
class CollectedData:
    """Everything the analyses consume, post-collection.

    Of the world it was collected from, only what the analyses read is
    kept: its ``config`` (which names the extra platforms) and each
    platform's ``total_posts`` (keyed ``twitter``, ``reddit``, ``4chan``
    and each extra platform's spec key).  The ``data`` stage pickles
    this object, so it must not hold the world, which the ``world``
    stage already stores.  Records of one text share one ``urls`` tuple
    (see :func:`~repro.collection.store.news_occurrences`), and the
    pickle stores each shared tuple once.
    """

    config: WorldConfig
    total_posts: dict[str, int]
    twitter: Dataset
    reddit: Dataset
    fourchan: Dataset
    recrawl: RecrawlStats
    #: Datasets of scenario-declared generic platforms, keyed by spec key.
    extras: dict[str, Dataset] = field(default_factory=dict)

    def __setstate__(self, state: dict) -> None:
        world = state.pop("world", None)
        if world is not None:  # pickled when the data held its world
            state["config"] = world.config
            state["total_posts"] = _total_posts(world)
        self.__dict__.update(state)

    # -- canonical slices ---------------------------------------------------

    @property
    def reddit_six(self) -> Dataset:
        return chz.slice_six_subreddits(self.reddit)

    @property
    def reddit_other(self) -> Dataset:
        return chz.slice_other_subreddits(self.reddit)

    @property
    def pol(self) -> Dataset:
        return chz.slice_board(self.fourchan, "/pol/")

    @property
    def fourchan_other(self) -> Dataset:
        return chz.slice_other_boards(self.fourchan, "/pol/")

    def extra_slices(self) -> dict[str, Dataset]:
        """Extra-platform datasets keyed by their process/slice name."""
        slices: dict[str, Dataset] = {}
        for spec in self.config.extra_platforms:
            if spec.key in self.extras:
                slices[spec.process] = self.extras[spec.key]
        return slices

    def sequence_slices(self) -> dict[str, Dataset]:
        """The coarse platforms of Tables 8-10 / Figures 7-8.

        The paper's three, plus one slice per scenario-declared extra
        platform (keyed by the extra's process name).
        """
        slices = {
            PLATFORM_POL: self.pol,
            PLATFORM_REDDIT: self.reddit_six,
            PLATFORM_TWITTER: self.twitter,
        }
        slices.update(self.extra_slices())
        return slices

    def merged(self) -> Dataset:
        return Dataset([*self.twitter.records, *self.reddit.records,
                        *self.fourchan.records,
                        *(record for dataset in self.extras.values()
                          for record in dataset.records)])

    def url_domains(self) -> dict[str, str]:
        domains: dict[str, str] = {}
        for dataset in (self.twitter, self.reddit, self.fourchan,
                        *self.extras.values()):
            for record in dataset:
                for occurrence in record.urls:
                    domains.setdefault(occurrence.url, occurrence.domain)
        return domains


def collect(world: World, stream_seed: int = 0) -> CollectedData:
    """Run all collectors against a world (Section 2.2)."""
    twitter = TwitterStreamCollector(
        registry=world.registry, seed=stream_seed).collect(world.twitter)
    reddit = RedditDumpReader(registry=world.registry).collect(world.reddit)
    fourchan = FourchanCrawler(registry=world.registry).collect(
        world.fourchan)
    recrawl = TweetRecrawler().recrawl(twitter, world.twitter)
    extras = {
        key: GenericCollector(registry=world.registry).collect(platform)
        for key, platform in world.extras.items()
    }
    return CollectedData(config=world.config,
                         total_posts=_total_posts(world), twitter=twitter,
                         reddit=reddit, fourchan=fourchan, recrawl=recrawl,
                         extras=extras)


def stream_source_factories(world: World, stream_seed: int = 0,
                            ) -> list[tuple[str,
                                            Callable[[],
                                                     Iterator[DatasetRecord]]]]:
    """Restartable per-platform stream builders for the live event bus.

    Each factory rebuilds its stream from the beginning and replays
    deterministically (every ``stream()`` call re-sorts with a fresh
    seeded RNG), which is exactly the contract
    :func:`repro.resilience.supervised_source` needs to restart a
    transiently failed source and skip already-delivered records.
    """
    factories: list[tuple[str, Callable[[], Iterator[DatasetRecord]]]] = [
        ("twitter", lambda: TwitterStreamCollector(
            registry=world.registry,
            seed=stream_seed).stream(world.twitter)),
        ("reddit", lambda: RedditDumpReader(
            registry=world.registry).stream(world.reddit)),
        ("4chan", lambda: FourchanCrawler(
            registry=world.registry).stream(world.fourchan)),
    ]
    for key, platform in world.extras.items():
        factories.append((key, lambda platform=platform: GenericCollector(
            registry=world.registry).stream(platform)))
    return factories


def stream_sources(world: World, stream_seed: int = 0,
                   ) -> list[tuple[str, Iterator[DatasetRecord]]]:
    """Per-platform record generators for the live event bus.

    The exact collectors :func:`collect` runs, exposed as generators:
    feeding these through :class:`repro.live.EventBus` yields the same
    records batch collection produces, one at a time.
    """
    return [(name, factory()) for name, factory
            in stream_source_factories(world, stream_seed)]


def influence_cascades(data: CollectedData,
                       ecosystem: Ecosystem = PAPER_ECOSYSTEM,
                       ) -> list[UrlCascade]:
    """Assemble per-URL cascades over the ecosystem's K processes.

    Communities the ecosystem maps to no process (other subreddits,
    other boards) are ignored, matching Section 5.2.  In the paper's
    ecosystem each of the eight communities is its own process; a
    scenario ecosystem may merge communities into platform-level
    processes (e.g. the six subreddits into ``Reddit``).
    """
    process_of = ecosystem.process_of
    merged = data.merged()
    categories = merged.url_categories()
    cascades: list[UrlCascade] = []
    for url, times in merged.url_timestamps().items():
        events = tuple((t, process)
                       for t, community in times
                       if (process := process_of(community)) is not None)
        if not events:
            continue
        cascades.append(UrlCascade(
            url=url,
            category=categories[url],
            events=events,
        ))
    return cascades
