"""Synthetic news-article generation.

The world simulator needs a stream of articles (stories), each with a
canonical URL on one of the 99 domains, a headline, and a publication
time.  Headlines are assembled from era-appropriate topic vocabulary so
downstream text processing (URL extraction from post bodies, hashtag
synthesis) has realistic material to chew on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..sampling import WeightedChoice
from .domains import NewsCategory, NewsDomain, NewsRegistry, default_registry
from .urls import canonicalize_url

_TOPICS_POLITICS = (
    "election", "debate", "campaign", "congress", "senate", "white-house",
    "voters", "polls", "primary", "swing-state", "ballot", "recount",
)
_TOPICS_WORLD = (
    "syria", "brexit", "russia", "china", "nato", "refugees", "sanctions",
    "summit", "treaty", "border", "trade-deal", "peace-talks",
)
_TOPICS_CONSPIRACY = (
    "false-flag", "cover-up", "deep-state", "leaked-emails", "globalists",
    "secret-memo", "shadow-government", "media-blackout", "crisis-actors",
    "vaccines", "chemtrails", "pizzagate",
)
_VERBS = (
    "slams", "exposes", "reveals", "denies", "confirms", "warns",
    "destroys", "backs", "blasts", "questions", "defends", "probes",
)
_SUBJECTS = (
    "trump", "clinton", "fbi", "cia", "media", "establishment", "insider",
    "whistleblower", "official", "report", "study", "source",
)


@dataclass(frozen=True)
class Article:
    """A single news story living at a canonical URL."""

    url: str
    domain: str
    category: NewsCategory
    headline: str
    published_at: int
    article_id: int

    @property
    def is_alternative(self) -> bool:
        return self.category == NewsCategory.ALTERNATIVE


@dataclass
class ArticleGenerator:
    """Deterministic (seeded) generator of :class:`Article` objects.

    ``domain_weights`` optionally biases which domain publishes each
    article; by default all domains of the requested category are equally
    likely.  URL slugs are unique per generator instance, so two articles
    never collide on canonical URL.
    """

    registry: NewsRegistry = field(default_factory=default_registry)
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._next_id = 0
        self._roots: dict[str, str] = {}
        #: (category, id(weights)) -> (copy of weights, domain sampler).
        self._samplers: dict[tuple[NewsCategory, int],
                             tuple[dict[str, float], WeightedChoice]] = {}

    def _domain_sampler(self, category: NewsCategory,
                        domain_weights: dict[str, float]) -> WeightedChoice:
        """The weighted domain draw of one weights profile, built once.

        Keyed by the profile's identity and checked against a copy of
        its contents, so a mutated or recycled dict is rebuilt.
        """
        key = (category, id(domain_weights))
        cached = self._samplers.get(key)
        if cached is not None and cached[0] == domain_weights:
            return cached[1]
        members = self.registry.of_category(category)
        weights = [domain_weights.get(d.name, 0.0) for d in members]
        if sum(weights) <= 0:
            weights = [1.0] * len(members)
        sampler = WeightedChoice(members, weights)
        self._samplers[key] = (dict(domain_weights), sampler)
        return sampler

    def _url_root(self, domain: NewsDomain) -> str:
        """``http://`` plus the canonical host of ``domain``, built once.

        Generated paths are already canonical (lowercase words and
        digits, single slashes, no trailing slash, query or fragment),
        so ``canonicalize_url(f"http://{domain.name}{path}")`` is this
        root plus ``path``.
        """
        root = self._roots.get(domain.name)
        if root is None:
            root = self._roots[domain.name] = canonicalize_url(
                f"http://{domain.name}/")[:-1]
        return root

    def _slug(self, category: NewsCategory) -> str:
        if category == NewsCategory.ALTERNATIVE:
            pool = _TOPICS_CONSPIRACY + _TOPICS_POLITICS
        else:
            pool = _TOPICS_POLITICS + _TOPICS_WORLD
        words = [
            self._rng.choice(_SUBJECTS),
            self._rng.choice(_VERBS),
            self._rng.choice(pool),
        ]
        return "-".join(words)

    def _headline(self, slug: str) -> str:
        return slug.replace("-", " ").title()

    def generate(self, category: NewsCategory, published_at: int,
                 domain: NewsDomain | None = None,
                 domain_weights: dict[str, float] | None = None) -> Article:
        """Create one article of ``category`` published at ``published_at``."""
        if domain is None:
            if domain_weights:
                domain = self._domain_sampler(
                    category, domain_weights).draw(self._rng)
            else:
                domain = self._rng.choice(
                    self.registry.of_category(category))
        elif domain.category != category:
            raise ValueError(
                f"domain {domain.name} is {domain.category}, not {category}")
        article_id = self._next_id
        self._next_id += 1
        slug = self._slug(category)
        path_style = self._rng.randrange(3)
        if path_style == 0:
            path = f"/news/{slug}-{article_id}"
        elif path_style == 1:
            path = f"/2016/{self._rng.randrange(1, 13):02d}/{slug}-{article_id}.html"
        else:
            path = f"/article/{article_id}/{slug}"
        return Article(
            url=self._url_root(domain) + path,
            domain=domain.name,
            category=category,
            headline=self._headline(slug),
            published_at=int(published_at),
            article_id=article_id,
        )
