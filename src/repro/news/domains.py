"""The 99-site news registry (45 mainstream + 54 alternative).

Domain names are taken from the paper itself: Tables 5, 6 and 7 list the
top-20 domains per platform and Figure 8 names the remainder.  Sites the
paper mentions but does not rank carry small default popularity weights.

Each platform has its own popularity profile, seeded from the measured
percentages in Tables 5 (six selected subreddits), 6 (Twitter) and
7 (/pol/), so the synthetic corpus reproduces the paper's domain mixes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class NewsCategory(enum.Enum):
    """Coarse news-source label used throughout the paper."""

    MAINSTREAM = "mainstream"
    ALTERNATIVE = "alternative"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class NewsDomain:
    """One entry in the 99-site list."""

    name: str
    category: NewsCategory
    #: True for the two state-sponsored outlets called out in Section 2.1.
    state_sponsored: bool = False

    def __post_init__(self) -> None:
        if "/" in self.name or "://" in self.name:
            raise ValueError(f"domain name must be bare, got {self.name!r}")


def _alt(name: str, state: bool = False) -> NewsDomain:
    return NewsDomain(name, NewsCategory.ALTERNATIVE, state_sponsored=state)


def _main(name: str) -> NewsDomain:
    return NewsDomain(name, NewsCategory.MAINSTREAM)


#: 54 alternative news sites (Tables 5-7 + Figure 8a + era-appropriate fill).
ALTERNATIVE_DOMAINS: tuple[NewsDomain, ...] = (
    _alt("breitbart.com"),
    _alt("rt.com", state=True),
    _alt("infowars.com"),
    _alt("sputniknews.com", state=True),
    _alt("beforeitsnews.com"),
    _alt("lifezette.com"),
    _alt("naturalnews.com"),
    _alt("activistpost.com"),
    _alt("veteranstoday.com"),
    _alt("redflagnews.com"),
    _alt("prntly.com"),
    _alt("dcclothesline.com"),
    _alt("worldnewsdailyreport.com"),
    _alt("therealstrategy.com"),
    _alt("disclose.tv"),
    _alt("clickhole.com"),
    _alt("libertywritersnews.com"),
    _alt("worldtruth.tv"),
    _alt("thelastlineofdefense.org"),
    _alt("nodisinfo.com"),
    _alt("mediamass.net"),
    _alt("newsbiscuit.com"),
    _alt("react365.com"),
    _alt("the-daily.buzz"),
    _alt("now8news.com"),
    _alt("firebrandleft.com"),
    # Remaining Figure 8a nodes.
    _alt("newsexaminer.net"),
    _alt("huzlers.com"),
    _alt("witscience.org"),
    _alt("realnewsrightnow.com"),
    _alt("thedcgazette.com"),
    _alt("newsbreakshere.com"),
    _alt("private-eye.co.uk"),
    _alt("thenewsnerd.com"),
    _alt("creambmp.com"),
    _alt("empirenews.net"),
    _alt("christwire.org"),
    _alt("dailybuzzlive.com"),
    _alt("newshounds.us"),
    _alt("politicalears.com"),
    _alt("linkbeef.com"),
    _alt("politicops.com"),
    _alt("derfmagazine.com"),
    _alt("stuppid.com"),
    _alt("theuspatriot.com"),
    _alt("usapoliticszone.com"),
    _alt("duhprogressive.com"),
    # Era-appropriate fake-news-list members to reach the paper's 54.
    _alt("abcnews.com.co"),
    _alt("denverguardian.com"),
    _alt("nationalreport.net"),
    _alt("worldpoliticus.com"),
    _alt("departed.co"),
    _alt("empireherald.com"),
    _alt("christiantimesnewspaper.com"),
)

#: 45 mainstream news sites (Tables 5-7 + Figure 8b).
MAINSTREAM_DOMAINS: tuple[NewsDomain, ...] = (
    _main("nytimes.com"),
    _main("cnn.com"),
    _main("theguardian.com"),
    _main("reuters.com"),
    _main("huffingtonpost.com"),
    _main("thehill.com"),
    _main("foxnews.com"),
    _main("bbc.com"),
    _main("abcnews.go.com"),
    _main("usatoday.com"),
    _main("nbcnews.com"),
    _main("time.com"),
    _main("washingtontimes.com"),
    _main("bloomberg.com"),
    _main("wsj.com"),
    _main("cbsnews.com"),
    _main("thedailybeast.com"),
    _main("forbes.com"),
    _main("nypost.com"),
    _main("cnbc.com"),
    _main("cbc.ca"),
    _main("washingtonexaminer.com"),
    # Remaining Figure 8b nodes.
    _main("chicagotribune.com"),
    _main("chron.com"),
    _main("azcentral.com"),
    _main("voanews.com"),
    _main("nationalpost.com"),
    _main("usnews.com"),
    _main("theglobeandmail.com"),
    _main("thestar.com"),
    _main("startribune.com"),
    _main("bostonglobe.com"),
    _main("euronews.com"),
    _main("mercurynews.com"),
    _main("dallasnews.com"),
    _main("denverpost.com"),
    _main("miamiherald.com"),
    _main("theage.com.au"),
    _main("seattletimes.com"),
    _main("ctvnews.ca"),
    _main("dw.com"),
    _main("aljazeera.com"),
    _main("economist.com"),
    _main("thetimes.co.uk"),
    _main("news.com.au"),
)

# ---------------------------------------------------------------------------
# Per-platform popularity profiles (percent of that platform's URLs of the
# category), transcribed from Tables 5, 6 and 7.  Unlisted registry domains
# share the leftover mass uniformly.
# ---------------------------------------------------------------------------

#: Table 5 - six selected subreddits.
REDDIT_ALT_SHARES: dict[str, float] = {
    "breitbart.com": 55.58, "rt.com": 19.18, "infowars.com": 8.99,
    "sputniknews.com": 3.95, "beforeitsnews.com": 2.34, "lifezette.com": 2.28,
    "naturalnews.com": 1.54, "activistpost.com": 1.45,
    "veteranstoday.com": 1.11, "redflagnews.com": 0.63, "prntly.com": 0.49,
    "dcclothesline.com": 0.40, "worldnewsdailyreport.com": 0.36,
    "therealstrategy.com": 0.30, "disclose.tv": 0.23, "clickhole.com": 0.20,
    "libertywritersnews.com": 0.20, "worldtruth.tv": 0.14,
    "thelastlineofdefense.org": 0.07, "nodisinfo.com": 0.05,
}
REDDIT_MAIN_SHARES: dict[str, float] = {
    "nytimes.com": 14.07, "cnn.com": 11.23, "theguardian.com": 8.86,
    "reuters.com": 6.67, "huffingtonpost.com": 5.67, "thehill.com": 5.15,
    "foxnews.com": 4.89, "bbc.com": 4.76, "abcnews.go.com": 2.94,
    "usatoday.com": 2.87, "nbcnews.com": 2.86, "time.com": 2.57,
    "washingtontimes.com": 2.52, "bloomberg.com": 2.50, "wsj.com": 2.31,
    "cbsnews.com": 2.26, "thedailybeast.com": 2.05, "forbes.com": 1.87,
    "nypost.com": 1.85, "cnbc.com": 1.54,
}

#: Table 6 - Twitter.
TWITTER_ALT_SHARES: dict[str, float] = {
    "breitbart.com": 46.04, "rt.com": 17.56, "infowars.com": 17.25,
    "therealstrategy.com": 5.63, "sputniknews.com": 4.11,
    "beforeitsnews.com": 2.26, "redflagnews.com": 2.04,
    "dcclothesline.com": 1.37, "naturalnews.com": 1.29, "clickhole.com": 0.53,
    "activistpost.com": 0.41, "disclose.tv": 0.39, "prntly.com": 0.26,
    "worldtruth.tv": 0.25, "libertywritersnews.com": 0.15,
    "worldnewsdailyreport.com": 0.06, "mediamass.net": 0.04,
    "newsbiscuit.com": 0.03, "react365.com": 0.02, "the-daily.buzz": 0.02,
}
TWITTER_MAIN_SHARES: dict[str, float] = {
    "theguardian.com": 19.04, "nytimes.com": 10.07, "bbc.com": 8.99,
    "forbes.com": 6.24, "thehill.com": 4.95, "cbc.ca": 4.82,
    "foxnews.com": 4.79, "wsj.com": 4.04, "bloomberg.com": 3.48,
    "reuters.com": 2.85, "usatoday.com": 2.02, "thedailybeast.com": 2.02,
    "nbcnews.com": 1.96, "nypost.com": 1.95, "cbsnews.com": 1.89,
    "abcnews.go.com": 1.78, "time.com": 1.71, "cnbc.com": 1.40,
    "washingtontimes.com": 1.34, "washingtonexaminer.com": 1.33,
}

#: Table 7 - /pol/.
POL_ALT_SHARES: dict[str, float] = {
    "breitbart.com": 53.00, "rt.com": 28.22, "infowars.com": 9.12,
    "sputniknews.com": 3.36, "veteranstoday.com": 1.07,
    "beforeitsnews.com": 0.91, "lifezette.com": 0.86, "naturalnews.com": 0.61,
    "worldnewsdailyreport.com": 0.46, "prntly.com": 0.41,
    "activistpost.com": 0.38, "dcclothesline.com": 0.29,
    "redflagnews.com": 0.20, "libertywritersnews.com": 0.16,
    "therealstrategy.com": 0.16, "clickhole.com": 0.11, "disclose.tv": 0.10,
    "now8news.com": 0.06, "firebrandleft.com": 0.05, "nodisinfo.com": 0.05,
}
POL_MAIN_SHARES: dict[str, float] = {
    "theguardian.com": 14.10, "nytimes.com": 10.07, "cnn.com": 9.90,
    "bbc.com": 5.45, "foxnews.com": 5.35, "reuters.com": 5.10,
    "time.com": 3.42, "abcnews.go.com": 3.40, "huffingtonpost.com": 3.29,
    "thehill.com": 3.04, "wsj.com": 2.82, "washingtontimes.com": 2.77,
    "bloomberg.com": 2.75, "cbc.ca": 2.66, "nypost.com": 2.65,
    "cbsnews.com": 2.44, "nbcnews.com": 2.32, "usatoday.com": 2.25,
    "cnbc.com": 2.13, "forbes.com": 1.68,
}


@dataclass
class NewsRegistry:
    """Lookup structure over the 99-site list.

    Provides domain -> :class:`NewsDomain` resolution (including subdomain
    matching) and per-platform popularity profiles used by the synthetic
    world generator.
    """

    domains: tuple[NewsDomain, ...] = field(
        default=MAINSTREAM_DOMAINS + ALTERNATIVE_DOMAINS)

    def __post_init__(self) -> None:
        self._by_name = {d.name.lower(): d for d in self.domains}
        if len(self._by_name) != len(self.domains):
            raise ValueError("duplicate domain names in registry")
        #: Raw URL -> classification memo owned by
        #: :func:`repro.news.classify.classify_url`.  Not a field, so it
        #: never enters equality or ``repr``.
        self._classified: dict[str, object] = {}

    def __getstate__(self) -> dict:
        # The memo is a per-process cache: pickles (the artifact store
        # persists worlds, which hold their registry) stay as they were.
        state = dict(self.__dict__)
        del state["_classified"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._classified = {}

    # -- lookups ----------------------------------------------------------

    def lookup(self, host: str) -> NewsDomain | None:
        """Resolve a hostname (possibly with subdomains) to a registry entry.

        ``abcnews.go.com`` must match exactly while ``www.breitbart.com``
        should match ``breitbart.com``, so we strip leading labels one at a
        time and take the longest-suffix match.
        """
        host = host.lower().rstrip(".")
        labels = host.split(".")
        for start in range(len(labels)):
            candidate = ".".join(labels[start:])
            entry = self._by_name.get(candidate)
            if entry is not None:
                return entry
        return None

    def of_category(self, category: NewsCategory) -> tuple[NewsDomain, ...]:
        return tuple(d for d in self.domains if d.category == category)

    @property
    def mainstream(self) -> tuple[NewsDomain, ...]:
        return self.of_category(NewsCategory.MAINSTREAM)

    @property
    def alternative(self) -> tuple[NewsDomain, ...]:
        return self.of_category(NewsCategory.ALTERNATIVE)

    # -- popularity profiles ----------------------------------------------

    def popularity_profile(self, platform: str,
                           category: NewsCategory) -> dict[str, float]:
        """Return a full probability distribution over registry domains.

        ``platform`` is one of ``"reddit"``, ``"twitter"``, ``"pol"``.
        Domains listed in the corresponding paper table get their measured
        share; the remaining registry domains split the leftover mass.
        """
        table = _PROFILE_TABLES.get((platform.lower(), category))
        if table is None:
            raise KeyError(f"no popularity profile for {platform!r}/{category}")
        members = self.of_category(category)
        named_total = sum(table.values())
        leftover = max(0.0, 100.0 - named_total)
        unlisted = [d.name for d in members if d.name not in table]
        weights: dict[str, float] = {}
        for domain in members:
            if domain.name in table:
                weights[domain.name] = table[domain.name]
            elif unlisted:
                weights[domain.name] = leftover / len(unlisted)
        total = sum(weights.values())
        return {name: w / total for name, w in weights.items()}


_PROFILE_TABLES: dict[tuple[str, NewsCategory], dict[str, float]] = {
    ("reddit", NewsCategory.ALTERNATIVE): REDDIT_ALT_SHARES,
    ("reddit", NewsCategory.MAINSTREAM): REDDIT_MAIN_SHARES,
    ("twitter", NewsCategory.ALTERNATIVE): TWITTER_ALT_SHARES,
    ("twitter", NewsCategory.MAINSTREAM): TWITTER_MAIN_SHARES,
    ("pol", NewsCategory.ALTERNATIVE): POL_ALT_SHARES,
    ("pol", NewsCategory.MAINSTREAM): POL_MAIN_SHARES,
}

_DEFAULT_REGISTRY: NewsRegistry | None = None


def default_registry() -> NewsRegistry:
    """Return the shared, lazily-built 99-site registry."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = NewsRegistry()
    return _DEFAULT_REGISTRY
