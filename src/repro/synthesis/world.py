"""World generation: stories -> cascades -> materialized platform content.

:func:`build_world` produces a fully populated :class:`World`: Twitter,
Reddit, and 4chan simulators filled with posts whose text embeds the
news URLs, authored by synthetic users (including bots), plus ambient
non-news traffic accounted in bulk.  The collection layer then crawls
these platforms exactly the way the paper's infrastructure crawled the
real services.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import (
    FOURCHAN_BASELINE_BOARDS,
    SELECTED_SUBREDDITS,
    STUDY_END,
    STUDY_START,
)
from ..news.articles import Article, ArticleGenerator
from ..news.domains import NewsCategory, NewsRegistry, default_registry
from ..platforms.fourchan import FourchanPlatform
from ..platforms.generic import GenericPlatform
from ..platforms.registry import PlatformSpec
from ..platforms.reddit import RedditPlatform
from ..platforms.twitter import TWEET_MAX_CHARS, TwitterPlatform
from ..sampling import CategoricalCDF
from .cascades import CascadeEngine, StoryCascade
from .params import (
    GroundTruth,
    OTHER_SUBREDDIT_ALT_SHARES,
    OTHER_SUBREDDIT_MAIN_SHARES,
    default_ground_truth,
    extend_ground_truth,
)
from .stories import StoryArrivals
from .users import (
    REDDIT_SHAPE,
    TWITTER_SHAPE,
    PopulationShape,
    UserPopulation,
)


@dataclass
class WorldConfig:
    """Volume and behavior knobs for one synthetic world.

    Defaults target a ~1/40-scale version of the paper's corpus so the
    full pipeline runs on a laptop; the ratios between quantities follow
    the paper's tables.
    """

    seed: int = 7
    n_stories_alternative: int = 2500
    n_stories_mainstream: int = 7000
    n_twitter_users: int = 3000
    n_reddit_users: int = 2500
    #: Probability a non-first Twitter event of a URL is a retweet.
    retweet_prob: float = 0.45
    #: Fraction of Reddit URL events materialized as comments (vs posts).
    reddit_comment_fraction: float = 0.55
    #: Probability a /pol/ URL event opens a new thread.
    pol_new_thread_prob: float = 0.35
    #: Re-crawl unavailability rates (Table 3: 83.2% / 87.7% retrieved).
    tweet_missing_alternative: float = 0.168
    tweet_missing_mainstream: float = 0.123
    #: Ambient (non-news) posts per news-URL post, from Table 1 ratios:
    #: Twitter 0.092% news -> ~1086x, Reddit 0.204% -> ~490x,
    #: 4chan 0.247% -> ~404x.
    ambient_twitter: float = 1086.0
    ambient_reddit: float = 490.0
    ambient_fourchan: float = 404.0
    #: Extra generic subreddit names forming Reddit's long tail.
    n_generic_subreddits: int = 400
    #: Probability an "other Reddit" event lands in the generic tail
    #: instead of a named Table-4 subreddit.
    generic_subreddit_prob: float = 0.35
    ground_truth: GroundTruth = field(default_factory=default_ground_truth)
    #: Scenario-declared generic platforms beyond the paper's triple.
    #: The ground truth is extended per spec (see
    #: :func:`repro.synthesis.params.extend_ground_truth`); the RNG
    #: stream is untouched when this is empty, so legacy worlds are
    #: bit-identical.
    extra_platforms: tuple[PlatformSpec, ...] = ()
    #: Scenario bot-mix overrides; ``None`` keeps the paper shapes.
    twitter_shape: PopulationShape | None = None
    reddit_shape: PopulationShape | None = None


@dataclass
class World:
    """A fully generated synthetic web."""

    config: WorldConfig
    registry: NewsRegistry
    twitter: TwitterPlatform
    reddit: RedditPlatform
    fourchan: FourchanPlatform
    cascades: list[StoryCascade]
    twitter_users: UserPopulation
    reddit_users: UserPopulation
    #: Scenario-declared generic platforms, keyed by spec key.
    extras: dict[str, GenericPlatform] = field(default_factory=dict)
    #: Maps a story URL to its first materialized tweet id (for RTs).
    first_tweet_of_url: dict[str, str] = field(default_factory=dict)

    @property
    def articles(self) -> list[Article]:
        return [c.article for c in self.cascades]

    def cascade_of(self, url: str) -> StoryCascade | None:
        for cascade in self.cascades:
            if cascade.url == url:
                return cascade
        return None


# ---------------------------------------------------------------------------
# Materializers
# ---------------------------------------------------------------------------

class _TwitterMaterializer:
    def __init__(self, world: World, rng: np.random.Generator) -> None:
        self.world = world
        self.rng = rng
        self.platform = world.twitter
        self._user_ids: dict[str, str] = {}
        for profile in world.twitter_users.profiles:
            user = self.platform.register_user(
                handle=profile.name,
                created_at=STUDY_START,
                is_bot=profile.is_bot,
                followers=int(self.rng.pareto(1.2) * 50) + 1,
            )
            self._user_ids[profile.name] = user.user_id
        self._alternative_names = tuple(
            domain.name for domain in world.registry.alternative)

    def _compose(self, article: Article) -> str:
        tag = "#" + article.headline.split()[-1].lower()
        budget = TWEET_MAX_CHARS - len(article.url) - len(tag) - 2
        headline = article.headline[:max(0, budget)].rstrip()
        return f"{headline} {article.url} {tag}".strip()

    def materialize(self, cascade: StoryCascade, when: float) -> None:
        alternative = cascade.article.is_alternative
        profile = self.world.twitter_users.sample_author(alternative)
        user_id = self._user_ids[profile.name]
        first = self.world.first_tweet_of_url.get(cascade.url)
        if first is not None and self.rng.random() < self.world.config.retweet_prob:
            self.platform.retweet(user_id, first, int(when))
            return
        tweet = self.platform.post_tweet(
            user_id, self._compose(cascade.article), int(when),
            hashtags=(cascade.article.headline.split()[-1].lower(),))
        # Global engagement (the firehose we do not sample): heavy-tailed
        # retweet counts, mostly-zero likes (Table 3).
        tweet.retweet_count = int(self.rng.lognormal(4.45, 1.6))
        tweet.like_count = (int(self.rng.lognormal(1.2, 1.8))
                            if self.rng.random() < 0.12 else 0)
        self.world.first_tweet_of_url.setdefault(cascade.url, tweet.tweet_id)

    def finalize(self) -> None:
        """Make tweets unavailable so re-crawls miss the Table 3 fractions.

        A few single-tweet bot accounts are suspended for realism; the
        rest of the target unavailability comes from tweet deletions,
        applied per category so the alternative/mainstream retrieval
        rates land near the paper's 83.2% / 87.7%.
        """
        config = self.world.config
        tweets_by_user: dict[str, list] = {}
        for tweet in self.platform.tweets.values():
            tweets_by_user.setdefault(tweet.user_id, []).append(tweet)
        # Suspend a handful of low-volume bot accounts.
        for user in self.platform.users.values():
            if (user.is_bot and len(tweets_by_user.get(user.user_id, [])) <= 2
                    and self.rng.random() < 0.05):
                self.platform.suspend_user(user.user_id)
        # Top up with per-tweet deletions to the category targets.
        for tweet in list(self.platform.tweets.values()):
            if self.platform.fetch_tweet(tweet.tweet_id) is None:
                continue
            missing = (config.tweet_missing_alternative
                       if self._looks_alternative(tweet.text)
                       else config.tweet_missing_mainstream)
            if self.rng.random() < missing:
                self.platform.delete_tweet(tweet.tweet_id)

    def _looks_alternative(self, text: str) -> bool:
        return any(name in text for name in self._alternative_names)


class _RedditMaterializer:
    def __init__(self, world: World, rng: np.random.Generator) -> None:
        self.world = world
        self.rng = rng
        self.platform = world.reddit
        for name in SELECTED_SUBREDDITS:
            self.platform.create_subreddit(name, created_at=0)
        for name in (*OTHER_SUBREDDIT_ALT_SHARES, *OTHER_SUBREDDIT_MAIN_SHARES):
            self.platform.ensure_subreddit(name, created_at=0)
        self.platform.create_subreddit("AutoNewspaper", created_at=0,
                                       is_automated=True)
        self._generic = [f"sub_{i:04d}"
                         for i in range(world.config.n_generic_subreddits)]
        for name in self._generic:
            self.platform.create_subreddit(name, created_at=0)
        self._recent_posts: dict[str, list[str]] = {}
        alt_names = list(OTHER_SUBREDDIT_ALT_SHARES)
        alt_weights = np.array(list(OTHER_SUBREDDIT_ALT_SHARES.values()))
        main_names = list(OTHER_SUBREDDIT_MAIN_SHARES)
        main_weights = np.array(list(OTHER_SUBREDDIT_MAIN_SHARES.values()))
        self._other_pools = {
            True: (alt_names, CategoricalCDF(alt_weights / alt_weights.sum())),
            False: (main_names,
                    CategoricalCDF(main_weights / main_weights.sum())),
        }

    def _other_subreddit(self, alternative: bool) -> str:
        if self.rng.random() < self.world.config.generic_subreddit_prob:
            return self._generic[int(self.rng.integers(len(self._generic)))]
        names, draw = self._other_pools[alternative]
        return names[draw.draw(self.rng)]

    def materialize(self, cascade: StoryCascade, when: float,
                    community: str) -> None:
        article = cascade.article
        if community == "Reddit-other":
            community = self._other_subreddit(article.is_alternative)
        profile = self.world.reddit_users.sample_author(
            article.is_alternative)
        as_comment = (self.rng.random()
                      < self.world.config.reddit_comment_fraction)
        recent = self._recent_posts.setdefault(community, [])
        if as_comment and recent:
            parent = recent[int(self.rng.integers(len(recent)))]
            self.platform.submit_comment(
                parent, profile.name,
                f"Source: {article.url}", int(when))
        else:
            post = self.platform.submit_post(
                community, profile.name, article.headline, int(when),
                body=article.url)
            recent.append(post.post_id)
            if len(recent) > 50:
                del recent[0]
            n_votes = int(self.rng.integers(0, 20))
            for coin in self.rng.random(n_votes).tolist():
                self.platform.vote(post.post_id, 1 if coin < 0.75 else -1)


class _FourchanMaterializer:
    def __init__(self, world: World, rng: np.random.Generator) -> None:
        self.world = world
        self.rng = rng
        self.platform = world.fourchan
        self.platform.create_board("pol", thread_capacity=150, bump_limit=300)
        for board in FOURCHAN_BASELINE_BOARDS:
            self.platform.create_board(board, thread_capacity=100,
                                       bump_limit=300)

    def _board_of(self, community: str) -> str:
        if community == "/pol/":
            return "pol"
        boards = FOURCHAN_BASELINE_BOARDS
        return boards[int(self.rng.integers(len(boards)))]

    def materialize(self, cascade: StoryCascade, when: float,
                    community: str) -> None:
        article = cascade.article
        board = self._board_of(community)
        text = f"{article.headline}\n{article.url}"
        # Replies go to one of the catalog's first 20 threads.
        front = self.platform.catalog(board)[:20]
        open_new = (not front or self.rng.random()
                    < self.world.config.pol_new_thread_prob)
        if open_new:
            self.platform.create_thread(board, text, int(when))
        else:
            thread = front[int(self.rng.integers(len(front)))]
            quotes = (thread.op.post_number,) if self.rng.random() < 0.4 else ()
            self.platform.reply(thread.thread_id, text, int(when),
                                sage=self.rng.random() < 0.05,
                                quotes=quotes)
        if self.rng.random() < 0.01:
            self.platform.expire_archives(int(when))


class _GenericMaterializer:
    """Materializer for a scenario-declared generic platform."""

    def __init__(self, world: World, rng: np.random.Generator,
                 spec: PlatformSpec) -> None:
        self.world = world
        self.rng = rng
        self.spec = spec
        self.platform = GenericPlatform(spec.key)
        world.extras[spec.key] = self.platform

    def materialize(self, cascade: StoryCascade, when: float,
                    community: str) -> None:
        article = cascade.article
        author = f"{self.spec.key}_u{int(self.rng.integers(self.spec.n_users))}"
        self.platform.submit_post(
            community, author, f"{article.headline}\n{article.url}",
            int(when))


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def resolve_ground_truth(config: WorldConfig) -> GroundTruth:
    """The config's ground truth, extended by any extra platforms."""
    truth = config.ground_truth
    missing = tuple(spec for spec in config.extra_platforms
                    if spec.process not in truth.processes)
    if missing:
        truth = extend_ground_truth(missing, base=truth)
    return truth


def build_world(config: WorldConfig | None = None) -> World:
    """Generate a complete synthetic world (stories, cascades, posts)."""
    config = config or WorldConfig()
    rng = np.random.default_rng(config.seed)
    registry = default_registry()
    world = World(
        config=config,
        registry=registry,
        twitter=TwitterPlatform(),
        reddit=RedditPlatform(),
        fourchan=FourchanPlatform(),
        cascades=[],
        twitter_users=UserPopulation(
            "tw_", config.n_twitter_users,
            config.twitter_shape or TWITTER_SHAPE, seed=config.seed),
        reddit_users=UserPopulation(
            "rd_", config.n_reddit_users,
            config.reddit_shape or REDDIT_SHAPE, seed=config.seed + 1),
    )
    engine = CascadeEngine(resolve_ground_truth(config), rng)
    arrivals = StoryArrivals()
    generator = ArticleGenerator(registry, seed=config.seed + 2)

    schedules = (
        (NewsCategory.ALTERNATIVE,
         arrivals.sample("alternative", config.n_stories_alternative, rng)),
        (NewsCategory.MAINSTREAM,
         arrivals.sample("mainstream", config.n_stories_mainstream, rng)),
    )
    blend = _blended_profiles(registry)
    flavor_mix = {category: _viral_platform_weights(category)
                  for category in NewsCategory}
    for category, schedule in schedules:
        groups = list(flavor_mix[category])
        group_draw = CategoricalCDF([flavor_mix[category][g] for g in groups])
        for published_at in schedule.timestamps:
            viral = engine.draw_viral()
            home: str | None = None
            flavor: str | None = None
            if viral:
                flavor = groups[group_draw.draw(rng)]
                weights = blend[(category, flavor)]
            else:
                home = engine.pick_local_home(
                    category == NewsCategory.ALTERNATIVE)
                weights = blend[(category, _platform_group(home))]
            article = generator.generate(category, int(published_at),
                                         domain_weights=weights)
            # Calendar-event days produce stories that also spread harder.
            boost = arrivals.spike_multiplier(published_at) ** 0.5
            cascade = engine.generate(article, viral=viral, home=home,
                                      flavor=flavor, virality_boost=boost)
            world.cascades.append(cascade)

    _materialize(world, rng)
    _add_ambient_traffic(world)
    return world


def _platform_group(community: str) -> str:
    if community == "Twitter":
        return "twitter"
    if community in ("/pol/", "4chan-other"):
        return "pol"
    return "reddit"


def _viral_platform_weights(category: NewsCategory) -> dict[str, float]:
    """Per-platform-group mix of viral-story events (Table 11 shares)."""
    from .params import (
        PAPER_EVENT_COUNTS_ALTERNATIVE,
        PAPER_EVENT_COUNTS_MAINSTREAM,
    )
    counts = (PAPER_EVENT_COUNTS_ALTERNATIVE
              if category == NewsCategory.ALTERNATIVE
              else PAPER_EVENT_COUNTS_MAINSTREAM)
    reddit = float(counts[:6].sum())
    pol = float(counts[6])
    twitter = float(counts[7])
    total = reddit + pol + twitter
    return {"reddit": reddit / total, "pol": pol / total,
            "twitter": twitter / total}


def _blended_profiles(registry: NewsRegistry,
                      ) -> dict[tuple[NewsCategory, str], dict[str, float]]:
    """Domain-popularity profiles per (category, platform-group).

    Local stories use their home platform's Table 5-7 profile; viral
    stories use a mixture weighted by where viral events actually land
    (the Table 11 event shares), which preserves the per-platform
    domain signatures of Figure 2.
    """
    blend: dict[tuple[NewsCategory, str], dict[str, float]] = {}
    for category in NewsCategory:
        per_platform = {
            group: registry.popularity_profile(group, category)
            for group in ("twitter", "reddit", "pol")
        }
        blend[(category, "twitter")] = per_platform["twitter"]
        blend[(category, "reddit")] = per_platform["reddit"]
        blend[(category, "pol")] = per_platform["pol"]
        mix = _viral_platform_weights(category)
        viral: dict[str, float] = {}
        for group, profile in per_platform.items():
            for name, weight in profile.items():
                viral[name] = viral.get(name, 0.0) + weight * mix[group]
        blend[(category, "viral")] = viral
    return blend


def _materialize(world: World, rng: np.random.Generator) -> None:
    """Turn cascade events into actual posts on the platform objects."""
    twitter = _TwitterMaterializer(world, rng)
    reddit = _RedditMaterializer(world, rng)
    fourchan = _FourchanMaterializer(world, rng)
    subreddits = set(SELECTED_SUBREDDITS)
    generic: dict[str, _GenericMaterializer] = {}
    for spec in world.config.extra_platforms:
        materializer = _GenericMaterializer(world, rng, spec)
        for community in spec.communities or (spec.process,):
            generic[community] = materializer

    flat: list[tuple[float, str, StoryCascade]] = []
    for cascade in world.cascades:
        for when, community in cascade.events:
            flat.append((when, community, cascade))
    flat.sort(key=lambda item: item[0])

    for when, community, cascade in flat:
        if community == "Twitter":
            twitter.materialize(cascade, when)
        elif community in subreddits or community == "Reddit-other":
            reddit.materialize(cascade, when, community)
        elif community in ("/pol/", "4chan-other"):
            fourchan.materialize(cascade, when, community)
        elif community in generic:
            generic[community].materialize(cascade, when, community)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown community {community!r}")
    twitter.finalize()
    world.fourchan.expire_archives(STUDY_END)


def _add_ambient_traffic(world: World) -> None:
    """Account for the non-news bulk of each platform (Table 1 ratios)."""
    config = world.config
    world.twitter.record_ambient_posts(
        int(len(world.twitter.tweets) * config.ambient_twitter))
    news_reddit = len(world.reddit.posts) + len(world.reddit.comments)
    world.reddit.record_ambient_posts(
        int(news_reddit * config.ambient_reddit))
    world.fourchan.record_ambient_posts(
        int(world.fourchan.total_posts * config.ambient_fourchan))
    for spec in config.extra_platforms:
        platform = world.extras[spec.key]
        platform.record_ambient_posts(
            int(len(platform.posts) * spec.ambient_ratio))
