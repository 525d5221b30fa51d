"""The paper's evaluation as one registry of executable claims.

Each table and figure is an :class:`Experiment` (id, title, paper
values, ``results/`` artifact, modules); each qualitative claim about
it is one :class:`Claim`: an id, its text, the influence processes it
reads, and ``check(study) -> (passed, detail)`` over the
:class:`~repro.api.Study`'s stage artifacts.  A claim applies to a study
exactly when its processes are all in ``study.ecosystem.processes``;
checks look process indices up there, never assume them.

``repro validate`` runs :func:`run_claims`; ``benchmarks/bench_claims.py``
asserts every claim, one case per experiment; EXPERIMENTS.md and
``GET /experiments`` list them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .analysis import characterization as chz
from .analysis import graphs, temporal
from .analysis.stats import ks_two_sample
from .config import STUDY_END, STUDY_START
from .core.hawkes import HawkesParams, simulate_branching
from .core.hawkes.simulation import expected_total_events
from .news.domains import NewsCategory
from .platforms.registry import (
    HAWKES_PROCESSES,
    PLATFORM_POL,
    PLATFORM_REDDIT,
    PLATFORM_TWITTER,
    SELECTED_SUBREDDITS,
)
from .synthesis import params as truth
from .timeutil import SECONDS_PER_DAY, utc

if TYPE_CHECKING:
    from .api.study import Study

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM

#: The one benchmark that asserts every claim (``-k <slug>`` per experiment).
BENCH_FILE = "benchmarks/bench_claims.py"


@dataclass(frozen=True)
class Experiment:
    """One table or figure of the paper's evaluation."""

    exp_id: str
    title: str
    paper_values: tuple[str, ...]
    artifact: str
    modules: tuple[str, ...]
    #: Claims read the Section 5 fits (``validate --skip-influence`` skips).
    needs_fits: bool = False

    @property
    def slug(self) -> str:
        """``table09`` / ``fig10``: claim-id prefix and benchmark case id."""
        return self.artifact.split("_", 1)[0]

    @property
    def claims(self) -> tuple["Claim", ...]:
        return tuple(c for c in CLAIMS if c.experiment == self.exp_id)


@dataclass(frozen=True)
class Claim:
    """One paper claim as a predicate over a study's artifacts."""

    claim_id: str
    experiment: str
    text: str
    #: Influence processes the check indexes; the claim applies to a
    #: study only when its ecosystem has every one of them.
    processes: tuple[str, ...]
    check: Callable[["Study"], tuple[bool, str]]

    def applies_to(self, ecosystem) -> bool:
        return set(self.processes) <= set(ecosystem.processes)


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one claim on one study."""

    claim: Claim
    #: ``None`` when the claim does not apply to the study's ecosystem.
    passed: bool | None
    detail: str

    @property
    def status(self) -> str:
        if self.passed is None:
            return "N/A"
        return "PASS" if self.passed else "FAIL"


_CHZ = "repro.analysis.characterization."

EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "Table 1", "Total posts crawled and share containing news URLs",
        ("Twitter: 587M posts, 0.022% alt / 0.070% main",
         "Reddit: 332M posts+comments, 0.023% / 0.181%",
         "4chan: 42M posts, 0.050% / 0.197%"),
        "table01_post_shares.txt",
        (_CHZ + "total_post_shares", "repro.platforms")),
    Experiment(
        "Table 2", "Dataset overview: posts with URLs and unique URL counts",
        ("Twitter 486,700 posts; 42,550 alt / 236,480 main URLs",
         "Six subreddits 620,530; 40,046 / 301,840",
         "Other subreddits 1,228,105; 24,027 / 726,948",
         "/pol/ 90,537; 8,963 / 40,164",
         "Other boards 7,131; 615 / 5,513"),
        "table02_dataset_overview.txt",
        (_CHZ + "dataset_overview", "repro.collection")),
    Experiment(
        "Table 3", "Twitter re-crawl: retrieval and engagement",
        ("alternative: 83.2% retrieved, 341±1,228 RTs, 0.82±15.6 likes",
         "mainstream: 87.7% retrieved, 404±2,146 RTs, 0.96±55.6 likes"),
        "table03_twitter_stats.txt",
        ("repro.collection.recrawl", _CHZ + "twitter_recrawl_stats")),
    Experiment(
        "Table 4", "Top-20 subreddits by news-URL occurrence",
        ("The_Donald heads alternative with 35.37%",
         "politics heads mainstream with 12.9%"),
        "table04_top_subreddits.txt", (_CHZ + "top_subreddits",)),
    Experiment(
        "Table 5", "Top-20 domains, six selected subreddits",
        ("breitbart.com 55.58% alt; nytimes.com 14.07% main",
         "top-20 cover 99% (alt) / 89% (main)"),
        "table05_domains_reddit.txt", (_CHZ + "top_domains",)),
    Experiment(
        "Table 6", "Top-20 domains, Twitter",
        ("breitbart.com 46.04% alt; theguardian.com 19.04% main",
         "therealstrategy.com 5.63% — popular only on Twitter"),
        "table06_domains_twitter.txt", (_CHZ + "top_domains",)),
    Experiment(
        "Table 7", "Top-20 domains, /pol/",
        ("breitbart.com 53.00%, rt.com 28.22% alt",
         "theguardian.com 14.10% main"),
        "table07_domains_pol.txt", (_CHZ + "top_domains",)),
    Experiment(
        "Figure 1", "CDF of per-URL appearance counts per platform",
        ("substantial single-appearance mass on all platforms",
         "Twitter: alternative URLs repost more than mainstream"),
        "fig01_summary.txt", (_CHZ + "url_appearance_cdf",)),
    Experiment(
        "Figure 2", "Per-domain platform fractions, top-20 domains",
        ("top-4 alternative domains spread over all three platforms",
         "therealstrategy.com essentially Twitter-only",
         "lifezette/veteranstoday popular off-Twitter"),
        "fig02_domain_fractions.txt", (_CHZ + "domain_platform_fractions",)),
    Experiment(
        "Figure 3", "CDF of per-user alternative-news fraction",
        ("~80% of users on both platforms share only mainstream",
         "13% of Twitter users share only alternative (likely bots)"),
        "fig03_summary.txt",
        (_CHZ + "user_alternative_fraction", "repro.synthesis.users")),
    Experiment(
        "Figure 4", "Normalized daily occurrence of news URLs",
        ("/pol/ and the six subreddits lead alternative occurrence",
         "spikes at the first debate and election day",
         "mainstream sharing similar across platforms"),
        "fig04_summary.txt",
        ("repro.analysis.temporal.daily_occurrence",
         "repro.synthesis.stories")),
    Experiment(
        "Figure 5", "CDF of first-post-to-repost lags",
        ("URLs recycled for months on all platforms",
         "Twitter lags shorter than Reddit/4chan",
         "inflection near the 24-hour mark"),
        "fig05_summary.txt", ("repro.analysis.temporal.repost_lag_cdf",)),
    Experiment(
        "Figure 6", "CDF of per-URL mean inter-arrival times",
        ("platforms differ significantly (two-sample KS, p < 0.01)",
         "Twitter has the smallest inter-arrival times",
         "six subreddits show a dual fast/slow regime"),
        "fig06_summary.txt",
        ("repro.analysis.temporal.interarrival_cdf",
         "repro.analysis.stats.ks_two_sample")),
    Experiment(
        "Figure 7", "Cross-platform first-occurrence delay CDFs",
        ("alternative news crosses platforms faster than mainstream",
         "turning points near 24 h; pair-specific cross points "
         "(~1 h to ~2 days)",
         "alt appears on Twitter before the six subreddits 80% of "
         "the time"),
        "fig07_summary.txt", ("repro.analysis.temporal.cross_platform_lags",)),
    Experiment(
        "Table 8", "URLs faster on platform 1 vs platform 2",
        ("Reddit vs Twitter: 18,762/11,416 main, 5,232/4,301 alt",
         "/pol/ vs Twitter: 2,938/4,700 main, 778/2,099 alt",
         "/pol/ vs Reddit: 5,382/14,662 main, 1,455/3,695 alt"),
        "table08_faster_counts.txt",
        ("repro.analysis.temporal.faster_platform_counts",)),
    Experiment(
        "Table 9", "First-hop appearance-sequence distribution",
        ("single-platform URLs dominate: 82% alt / 89% main",
         "T only 44.5%/41%, R only 33.3%/46.1%, 4 only 4.4%/3.7%",
         "R→T 6.5%/3.35% is the biggest hop"),
        "table09_first_hop.txt",
        ("repro.analysis.sequences.first_hop_distribution",)),
    Experiment(
        "Table 10", "Triple-platform sequence distribution",
        ("R→T→4 36.3% alt / 35.3% main; T→R→4 29% / 18.8%",
         "six subreddits head 51% (alt) / 59% (main) of sequences"),
        "table10_triplets.txt",
        ("repro.analysis.sequences.triplet_distribution",)),
    Experiment(
        "Figure 8", "News-ecosystem graphs (domain → first platform)",
        ("breitbart.com URLs appear first on the six subreddits",
         "infowars/rt/sputniknews appear first on Twitter",
         "/pol/ is never the dominant first platform"),
        "fig08_ecosystem_graph.txt",
        ("repro.analysis.graphs.build_ecosystem_graph",)),
    Experiment(
        "Figure 9", "Illustrative Hawkes cascade (3 processes)",
        ("conceptual figure: background events trigger impulse "
         "responses and child events across communities",),
        "fig09_hawkes_demo.txt", ("repro.core.hawkes.simulation",)),
    Experiment(
        "Table 11", "Hawkes corpus: URLs, events, mean background rates",
        ("2,136 alt / 5,589 main URLs after selection",
         "Twitter: 23,172 alt / 36,250 main events; λ0 0.0028/0.00233",
         "The_Donald's alternative λ0 exceeds its mainstream λ0"),
        "table11_hawkes_corpus.txt", ("repro.core.influence",),
        needs_fits=True),
    Experiment(
        "Figure 10", "Mean Hawkes weights, alternative vs mainstream",
        ("W(Twitter→Twitter) largest: 0.1554 alt vs 0.1096 main "
         "(+41.9%, p<0.01)",
         "The_Donald the only community with all-alt-dominant inputs",
         "Twitter-source rows mostly significant"),
        "fig10_mean_weights.txt",
        ("repro.core.influence.aggregate_weights",
         "repro.core.hawkes.inference"),
        needs_fits=True),
    Experiment(
        "Figure 11", "Estimated percentage of events caused, per source",
        ("Twitter the top single influence for most destinations",
         "The_Donald causes 2.72% of Twitter's alt events, 8% of /pol/'s",
         "The_Donald + /pol/ >4.5% of Twitter's alternative URLs"),
        "fig11_influence_pct.txt",
        ("repro.core.influence.influence_percentages",),
        needs_fits=True),
)


def by_id(exp_id: str) -> Experiment:
    """Look up an experiment: ``"Table 9"``, or abbreviated ``"fig 10"``."""
    kind, _, number = exp_id.lower().partition(" ")
    for experiment in EXPERIMENTS:
        exp_kind, _, exp_number = experiment.exp_id.lower().partition(" ")
        if kind and exp_kind.startswith(kind) and number == exp_number:
            return experiment
    raise KeyError(f"unknown experiment {exp_id!r}")


_REGISTERED: list[Claim] = []


def _add(claim_id: str, text: str, check, processes=()) -> None:
    """Register one claim; the id's prefix is its experiment's slug."""
    slug = claim_id.split(".", 1)[0]
    experiment = next(e.exp_id for e in EXPERIMENTS if e.slug == slug)
    _REGISTERED.append(Claim(claim_id, experiment, text, tuple(processes),
                             check))


def _claim(claim_id: str, text: str, processes=()):
    """Decorator form of :func:`_add`."""
    def register(check):
        _add(claim_id, text, check, processes)
        return check
    return register


def _index(study, process: str) -> int:
    return study.ecosystem.processes.index(process)


def _listing(named: dict, fmt: str = ".2f") -> str:
    return ", ".join(f"{key} {value:{fmt}}"
                     for key, value in named.items()) or "nothing to check"


# ---------------------------------------------------------------------------
# Tables 1-10: collected slices
# ---------------------------------------------------------------------------

#: The paper's platforms in Table 1 and its community splits in Table 2
#: (scenario extras add rows the paper's claims say nothing about).
PAPER_PLATFORMS = ("Twitter", "Reddit", "4chan")
PAPER_SPLITS = ("Twitter", "Reddit (six selected subreddits)",
                "Reddit (other subreddits)", "4chan (/pol/)",
                "4chan (other boards)")


def _column(study, table_id: int, index: int, keys=None) -> dict:
    """``row[0] -> row[index]`` of a table keyed by its first column."""
    column = {row[0]: row[index] for row in study.table(table_id).rows}
    return column if keys is None else {key: column[key] for key in keys}


def _side(study, table_id: int, category: NewsCategory) -> list:
    """Tables 4-7 and 9-10 put each category in two columns (name or
    count, then %): ``(key, value, %)`` for the category's filled rows."""
    col = 1 if category is ALT else 3
    return [(row[0], row[col], row[col + 1])
            for row in study.table(table_id).rows if row[col]]


def _top(study, table_id: int, category: NewsCategory, n: int) -> list:
    return [name for _, name, _ in _side(study, table_id, category)[:n]]


def _leads(table_id: int, name: str, min_pct: float):
    """Check: ``name`` heads the alternative ranking with over ``min_pct``."""
    def check(study):
        _, top, pct = (_side(study, table_id, ALT) or [(0, "none", 0.0)])[0]
        return top == name and pct > min_pct, f"alt top: {top} ({pct:.1f}%)"
    return check


def _in_top(table_id: int, category: NewsCategory, n: int, names: set):
    """Check: one of ``names`` is in the category's top-``n``."""
    def check(study):
        top = _top(study, table_id, category, n)
        return bool(names & set(top)), f"{category.value} top-{n}: {top}"
    return check


def _sequences(study, table_id: int, category: NewsCategory) -> dict:
    """Tables 9-10: one category's ``sequence -> (count, %)``, seen only."""
    return {seq: (n, pct) for seq, n, pct in _side(study, table_id, category)}


def _share(sequences: dict, test) -> float:
    return sum(pct for seq, (_, pct) in sequences.items() if test(seq))


def _share_beats(table_id: int, label: str, larger, smaller):
    """Check: per category, ``larger`` sequences outweigh ``smaller`` ones."""
    def check(study):
        shares = {c.value: tuple(_share(_sequences(study, table_id, c), test)
                                 for test in (larger, smaller))
                  for c in (ALT, MAIN)}
        return (all(a > b for a, b in shares.values()), f"{label}: "
                + "; ".join(f"{c} {a:.1f} vs {b:.1f}"
                            for c, (a, b) in shares.items()))
    return check


@_claim("table01.mainstream-share",
        "mainstream share exceeds alternative on Twitter, Reddit and 4chan")
def _(study):
    alt = _column(study, 1, 2, PAPER_PLATFORMS)
    main = _column(study, 1, 3, PAPER_PLATFORMS)
    return (all(main[p] > alt[p] > 0 for p in PAPER_PLATFORMS),
            f"% alt {_listing(alt, '.3f')}; % main {_listing(main, '.3f')}")


@_claim("table01.twitter-most-posts", "Twitter has more posts than 4chan")
def _(study):
    total = _column(study, 1, 1)
    return (total["Twitter"] > total["4chan"],
            f"Twitter {total['Twitter']} vs 4chan {total['4chan']}")


@_claim("table01.4chan-alt-share",
        "4chan has the largest alternative share of the three platforms")
def _(study):
    alt = _column(study, 1, 2, PAPER_PLATFORMS)
    return max(alt, key=alt.get) == "4chan", f"% alt {_listing(alt, '.3f')}"


@_claim("table02.mainstream-uniques",
        "mainstream unique URLs outnumber alternative in every paper split")
def _(study):
    alt = _column(study, 2, 2, PAPER_SPLITS)
    main = _column(study, 2, 3, PAPER_SPLITS)
    return (all(main[s] > alt[s] for s in PAPER_SPLITS),
            f"alt {list(alt.values())} vs main {list(main.values())}")


@_claim("table02.pol-dwarfs-boards",
        "/pol/ has over 5x the URL posts of the baseline boards")
def _(study):
    pol, boards = _column(study, 2, 1, PAPER_SPLITS[3:]).values()
    return pol > 5 * boards, f"/pol/ {pol} vs other boards {boards}"


@_claim("table02.other-reddit-mainstream",
        "other subreddits have more mainstream uniques than the six")
def _(study):
    six, other = _column(study, 2, 3, PAPER_SPLITS[1:3]).values()
    return other > six, f"other {other} vs six {six}"


def _retrieved(study) -> tuple[float, float]:
    return tuple(_column(study, 3, 3, (ALT.value, MAIN.value)).values())


@_claim("table03.alt-vanishes",
        "alternative tweets are retrieved less often than mainstream")
def _(study):
    alt, main = _retrieved(study)
    return alt < main, f"retrieved: alt {alt:.1f}% vs main {main:.1f}%"


@_claim("table03.retrieval-range",
        "retrieval near the paper's: alt in (70, 95)%, main in (75, 97)%")
def _(study):
    alt, main = _retrieved(study)
    return (70 < alt < 95 and 75 < main < 97,
            f"alt {alt:.1f}%, main {main:.1f}%")


@_claim("table03.retweets-heavy-tailed",
        "mean retweets above 50 with std above the mean")
def _(study):
    mean, std = _column(study, 3, 4), _column(study, 3, 5)
    return (all(mean[c] > 50 and std[c] > mean[c] for c in mean),
            f"mean {_listing(mean, '.0f')}; std {_listing(std, '.0f')}")


@_claim("table03.likes-low", "mean likes below 5")
def _(study):
    likes = _column(study, 3, 6)
    return all(v < 5 for v in likes.values()), f"mean {_listing(likes)}"


_add("table04.the-donald-tops-alt",
     "The_Donald tops the alternative column with over 15%",
     _leads(4, "The_Donald", 15))
_add("table04.politics-mainstream",
     "politics, worldnews or news in the mainstream top-5",
     _in_top(4, MAIN, 5, {"politics", "worldnews", "news"}))


@_claim("table04.selected-in-alt-top20",
        "at least four of the six selected subreddits in the alternative "
        "top-20")
def _(study):
    selected = sorted(set(_top(study, 4, ALT, 20)) & set(SELECTED_SUBREDDITS))
    return len(selected) >= 4, f"selected in alt top-20: {selected}"


_add("table05.breitbart-tops-alt",
     "breitbart.com tops alternative with over 35%",
     _leads(5, "breitbart.com", 35))
_add("table05.nytimes-cnn-top3", "nytimes.com or cnn.com in the mainstream "
     "top-3", _in_top(5, MAIN, 3, {"nytimes.com", "cnn.com"}))


@_claim("table05.top20-coverage",
        "top-20 domains cover over 90% (alt) / 70% (main) of occurrences")
def _(study):
    alt, main = (chz.top_domain_coverage(study.data.reddit_six, c, 20)
                 for c in (ALT, MAIN))
    return alt > 90 and main > 70, f"coverage alt {alt:.1f}%, main {main:.1f}%"


@_claim("table06.breitbart-guardian-top",
        "breitbart.com tops alternative, theguardian.com mainstream")
def _(study):
    tops = _top(study, 6, ALT, 1) + _top(study, 6, MAIN, 1)
    return tops == ["breitbart.com", "theguardian.com"], f"tops: {tops}"


_add("table06.therealstrategy-top10",
     "therealstrategy.com in Twitter's alternative top-10",
     _in_top(6, ALT, 10, {"therealstrategy.com"}))
_add("table07.breitbart-tops-alt",
     "breitbart.com tops alternative with over 35%",
     _leads(7, "breitbart.com", 35))
_add("table07.rt-top4", "rt.com in the alternative top-4",
     _in_top(7, ALT, 4, {"rt.com"}))
_add("table07.mainstream-leaders",
     "theguardian.com, nytimes.com or cnn.com in the mainstream top-5",
     _in_top(7, MAIN, 5, {"theguardian.com", "nytimes.com", "cnn.com"}))


def _faster(study) -> dict:
    """Table 8: ``(comparison, category) -> (#1 faster, #2 faster)``."""
    return {(row[0], row[1]): (row[2], row[3]) for row in study.table(8).rows}


@_claim("table08.reddit-ahead-mainstream",
        "the six subreddits see shared mainstream URLs first (> 0.8x "
        "Twitter's count)")
def _(study):
    reddit, twitter = _faster(study)[("Reddit6 vs Twitter", MAIN.value)]
    return (reddit > 0.8 * twitter,
            f"mainstream first on Reddit {reddit} vs Twitter {twitter}")


@_claim("table08.pol-behind-reddit",
        "/pol/ sees URLs after the six subreddits in both categories")
def _(study):
    faster = _faster(study)
    counts = {c.value: faster[("/pol/ vs Reddit6", c.value)]
              for c in (ALT, MAIN)}
    return (all(reddit > pol for pol, reddit in counts.values()),
            f"(/pol/, Reddit) first: {counts}")


@_claim("table08.comparisons-populated", "every comparison finds shared URLs")
def _(study):
    empty = [key for key, counts in _faster(study).items() if sum(counts) == 0]
    return not empty, f"empty comparisons: {empty}"


@_claim("table09.singles-dominate",
        "single-platform URLs above 55% in both categories")
def _(study):
    singles = {c.value: _share(_sequences(study, 9, c), lambda s: "only" in s)
               for c in (ALT, MAIN)}
    return (all(s > 55 for s in singles.values()),
            f"single-platform % {_listing(singles, '.1f')}")


_add("table09.reddit-headed-hops",
     "Reddit-headed hops outnumber /pol/-headed hops",
     _share_beats(9, "R-headed % vs 4-headed %", lambda s: s[:2] == "R→",
                  lambda s: s[:2] == "4→"))


_add("table09.t-only-beats-4-only",
     "T-only above 4-only in both categories (an unseen T-only fails)",
     _share_beats(9, "T only % vs 4 only %", lambda s: s == "T only",
                  lambda s: s == "4 only"))


@_claim("table10.populated",
        "over 5 alternative and 10 mainstream triple-platform URLs")
def _(study):
    alt, main = (sum(n for n, _ in _sequences(study, 10, c).values())
                 for c in (ALT, MAIN))
    return alt > 5 and main > 10, f"alt {alt}, main {main} URLs"


_add("table10.ends-at-pol",
     "sequences ending at /pol/ outnumber those starting there",
     _share_beats(10, "ending at 4 % vs starting at 4 %",
                  lambda s: s[-2:] == "→4", lambda s: s[:2] == "4→"))


@_claim("table10.reddit-heads", "Reddit heads over 25% of mainstream triplets")
def _(study):
    triplets = _sequences(study, 10, MAIN)
    total = sum(n for s, (n, _) in triplets.items() if "→" in s)
    leading = sum(n for s, (n, _) in triplets.items() if s.startswith("R→"))
    share = 100.0 * leading / total if total else 0.0
    return share > 25, f"Reddit-headed share {share:.1f}%"


# ---------------------------------------------------------------------------
# Figures 1-9: collected slices (the figure inputs are shared with the
# benchmark, which writes them as CSV series)
# ---------------------------------------------------------------------------

#: The US election day as a day index into the study window (Figure 4).
ELECTION_DAY = (utc(2016, 11, 8) - STUDY_START) // SECONDS_PER_DAY
#: Figure 8's first-platform axes.
GRAPH_PLATFORMS = (PLATFORM_POL, PLATFORM_REDDIT, PLATFORM_TWITTER)
#: Figure 9's illustrative process names.
DEMO_PROCESSES = ("The_Donald", "Twitter", "/pol/")


def _three_slices(data) -> dict:
    return {"reddit6": data.reddit_six, "pol": data.pol,
            "twitter": data.twitter}


def appearance_cdfs(data) -> dict:
    """Figure 1: ``(slice, category) -> Ecdf`` of per-URL appearances."""
    return {(name, category): chz.url_appearance_cdf(dataset, category)
            for name, dataset in _three_slices(data).items()
            for category in NewsCategory}


def domain_fractions(data, category: NewsCategory) -> list:
    """Figure 2: per-domain platform fractions for one category."""
    named = {"/pol/": data.pol,
             "Reddit (6 selected subreddits)": data.reddit_six,
             "Twitter": data.twitter}
    return chz.domain_platform_fractions(named, category, top_n=20)


def user_fractions(data) -> dict:
    """Figure 3: per-user alternative fractions, Twitter and the six."""
    return {"twitter": chz.user_alternative_fraction(data.twitter),
            "reddit6": chz.user_alternative_fraction(data.reddit_six)}


def daily_series(data) -> dict:
    """Figure 4: daily occurrence per community slice."""
    named = {"pol": data.pol, "4chan_other": data.fourchan_other,
             "reddit6": data.reddit_six, "reddit_other": data.reddit_other,
             "twitter": data.twitter}
    return {name: temporal.daily_occurrence(dataset, name, STUDY_START,
                                            STUDY_END)
            for name, dataset in named.items()}


def repost_lag_cdfs(data) -> dict:
    """Figure 5: ``(slice, category) -> Ecdf`` of repost lags (hours)."""
    return {(name, category): temporal.repost_lag_cdf(dataset, category)
            for name, dataset in _three_slices(data).items()
            for category in NewsCategory}


def interarrival_cdfs(data) -> dict:
    """Figure 6: ``(scope, slice, category) -> Ecdf``, scope common or all."""
    slices = _three_slices(data)
    common = temporal.common_urls(slices)
    out = {}
    for name, dataset in slices.items():
        for category in NewsCategory:
            out[("common", name, category)] = temporal.interarrival_cdf(
                dataset, category, restrict_urls=common)
            out[("all", name, category)] = temporal.interarrival_cdf(
                dataset, category)
    return out


def cross_platform_pairs(data) -> dict:
    """Figure 7: ``(pair, category) -> CrossPlatformLags``."""
    pairs = {"twitter-reddit6": (data.twitter, data.reddit_six, "Twitter",
                                 "Reddit6"),
             "twitter-pol": (data.twitter, data.pol, "Twitter", "/pol/"),
             "pol-reddit6": (data.pol, data.reddit_six, "/pol/", "Reddit6")}
    return {(pair, category): temporal.cross_platform_lags(*args, category)
            for category in (ALT, MAIN) for pair, args in pairs.items()}


def ecosystem_graph(data, category: NewsCategory) -> graphs.EcosystemGraph:
    """Figure 8: the domain -> first-platform counts for one category."""
    return graphs.build_ecosystem_graph(data.sequence_slices(), category,
                                        data.url_domains())


def hawkes_demo() -> tuple[HawkesParams, object]:
    """Figure 9: a seeded three-process Hawkes cascade over 10,000 bins."""
    pmf = np.exp(-np.arange(1, 61) / 10.0)
    params = HawkesParams(
        background=np.array([0.002, 0.004, 0.002]),
        weights=np.array([[0.30, 0.25, 0.20],
                          [0.15, 0.40, 0.10],
                          [0.20, 0.20, 0.30]]),
        impulse=np.tile(pmf / pmf.sum(), (3, 3, 1)),
    )
    return params, simulate_branching(params, 10_000,
                                      np.random.default_rng(20))


def _mass_above(cdfs_of, x: float, threshold: float):
    """Check: every non-empty slice-category ECDF has F(x) > threshold."""
    def check(study):
        mass = {f"{name} {c.value}": ecdf(x)
                for (name, c), ecdf in cdfs_of(study.data).items()
                if ecdf is not None}
        return all(p > threshold for p in mass.values()), _listing(mass)
    return check


_add("fig01.single-appearance-mass",
     "P(count = 1) above 0.25 on every slice and category",
     _mass_above(appearance_cdfs, 1, 0.25))


@_claim("fig01.twitter-alt-reposts",
        "Twitter alternative URLs repost at least as much as mainstream")
def _(study):
    cdfs = appearance_cdfs(study.data)
    alt, main = cdfs[("twitter", ALT)], cdfs[("twitter", MAIN)]
    log_alt, log_main = (np.log(e.values).mean() for e in (alt, main))
    return (alt(1) <= main(1) + 0.02 and log_alt >= 0.9 * log_main,
            f"P(1) alt {alt(1):.2f} vs main {main(1):.2f}; log-mean "
            f"{log_alt:.2f} vs {log_main:.2f}")


@_claim("fig02.breitbart-rt-top4",
        "breitbart.com first and rt.com in the overall alternative top-4")
def _(study):
    top4 = [s.domain for s in domain_fractions(study.data, ALT)[:4]]
    return (top4[:1] == ["breitbart.com"] and "rt.com" in top4,
            f"alt top-4: {top4}")


@_claim("fig02.therealstrategy-twitter",
        "therealstrategy.com Twitter share > 0.5 when in the top-20")
def _(study):
    share = next((s for s in domain_fractions(study.data, ALT)
                  if s.domain == "therealstrategy.com"), None)
    if share is None:
        return True, "therealstrategy.com not in the alternative top-20"
    twitter = share.fractions["Twitter"]
    return twitter > 0.5, f"Twitter share {twitter:.3f}"


@_claim("fig02.fractions-sum-to-one", "per-domain fractions sum to 1")
def _(study):
    worst = max((abs(sum(s.fractions.values()) - 1.0) for c in (ALT, MAIN)
                 for s in domain_fractions(study.data, c)), default=0.0)
    return worst < 1e-9, f"max |sum - 1| = {worst:.2e}"


@_claim("fig03.mainstream-only-majority",
        "most Twitter and six-subreddit users share only mainstream news")
def _(study):
    shares = {name: users.pct_mainstream_only
              for name, users in user_fractions(study.data).items()}
    return (all(s > 50 for s in shares.values()),
            f"main-only % {_listing(shares, '.1f')}")


@_claim("fig03.twitter-alt-only",
        "Twitter has over 5% alternative-only (bot-like) users, more than "
        "Reddit")
def _(study):
    shares = {name: users.pct_alternative_only
              for name, users in user_fractions(study.data).items()}
    return (shares["twitter"] > shares["reddit6"] and shares["twitter"] > 5,
            f"alt-only % {_listing(shares, '.1f')}")


@_claim("fig03.mixed-range", "Twitter's mixed users span the preference "
        "range (max > 0.6, min < 0.4)")
def _(study):
    mixed = user_fractions(study.data)["twitter"].mixed_users.values
    return (mixed.max() > 0.6 and mixed.min() < 0.4,
            f"mixed range [{mixed.min():.2f}, {mixed.max():.2f}]")


@_claim("fig04.pol-alt-share",
        "/pol/ normalized alternative share above other-Reddit's")
def _(study):
    series = daily_series(study.data)
    pol, other = (series[name].normalized(ALT).mean()
                  for name in ("pol", "reddit_other"))
    return pol > other, f"mean alt: /pol/ {pol:.4f} vs other {other:.4f}"


@_claim("fig04.election-spike", "six subreddits' election-day volume above "
        "1.5x the nonzero median of the surrounding +-30 days")
def _(study):
    reddit6 = daily_series(study.data)["reddit6"]
    volume = reddit6.alternative + reddit6.mainstream
    window = volume[max(0, ELECTION_DAY - 30):ELECTION_DAY + 30]
    baseline = np.median(window[window > 0])
    return (volume[ELECTION_DAY] > 1.5 * baseline,
            f"election day {volume[ELECTION_DAY]:.0f} vs {baseline:.0f}")


@_claim("fig04.twitter-gaps-empty",
        "Twitter collection-gap windows hold no collected posts")
def _(study):
    inside = sum(1 for record in study.data.twitter
                 if any(gap.contains(record.created_at) for gap in study.gaps))
    return inside == 0, f"{inside} tweets inside {len(study.gaps)} gaps"


@_claim("fig05.long-tails", "repost tails beyond 1,000 hours")
def _(study):
    longest = max((e.values.max() for e in repost_lag_cdfs(study.data)
                   .values() if e is not None), default=0.0)
    return longest > 1000, f"longest repost lag {longest:.0f}h"


@_claim("fig05.twitter-vs-pol",
        "Twitter's mainstream median lag within 2.5x /pol/'s")
def _(study):
    cdfs = repost_lag_cdfs(study.data)
    twitter, pol = cdfs[("twitter", MAIN)], cdfs[("pol", MAIN)]
    if not (twitter and pol):
        return True, "a mainstream lag CDF is empty"
    return (twitter.median <= pol.median * 2.5,
            f"median Twitter {twitter.median:.1f}h vs /pol/ "
            f"{pol.median:.1f}h")


_add("fig05.day-mass",
     "over 20% of reposts within 24 h on every slice and category",
     _mass_above(repost_lag_cdfs, 24.0, 0.2))


def _interarrival_twitter_reddit(study):
    cdfs = interarrival_cdfs(study.data)
    return cdfs[("all", "twitter", MAIN)], cdfs[("all", "reddit6", MAIN)]


@_claim("fig06.twitter-faster", "Twitter's median mainstream inter-arrival "
        "below the six subreddits'")
def _(study):
    twitter, reddit = _interarrival_twitter_reddit(study)
    return (twitter.median < reddit.median,
            f"median {twitter.median:.0f}s vs {reddit.median:.0f}s")


@_claim("fig06.ks-significant",
        "KS Twitter-vs-Reddit (mainstream) significant at p < 0.01")
def _(study):
    twitter, reddit = _interarrival_twitter_reddit(study)
    ks = ks_two_sample(twitter.values, reddit.values)
    return ks.pvalue < 0.01, f"D={ks.statistic:.3f} p={ks.pvalue:.2e}"


@_claim("fig07.alt-not-slower",
        "alternative Twitter->Reddit deltas not slower than 3x mainstream")
def _(study):
    pairs = cross_platform_pairs(study.data)
    alt, main = (pairs[("twitter-reddit6", c)].a_first for c in (ALT, MAIN))
    if not (alt and main):
        return True, "a Twitter-first delta CDF is empty"
    return (alt.median <= main.median * 3,
            f"median alt {alt.median:.0f}s vs main {main.median:.0f}s")


@_claim("fig07.day-boundary-mass",
        "over 15% of deltas within 24 h for every pair with > 10 URLs")
def _(study):
    shares = {f"{pair} {c.value}": result.turning_share_24h()[0]
              for (pair, c), result in cross_platform_pairs(study.data)
              .items() if result.a_first is not None and result.a_first.n > 10}
    return all(s > 0.15 for s in shares.values()), _listing(shares)


def _alt_first_platforms(study) -> list:
    return graphs.domain_first_platform_shares(
        ecosystem_graph(study.data, ALT), GRAPH_PLATFORMS)


@_claim("fig08.pol-never-dominant",
        "no top-10 alternative domain has /pol/ as dominant first platform")
def _(study):
    dominant = {r.domain: r.dominant for r in _alt_first_platforms(study)[:10]}
    return PLATFORM_POL not in dominant.values(), f"dominant: {dominant}"


@_claim("fig08.shares-sum-to-one", "the alternative graph has "
        "first-platform domains, each with shares summing to 1")
def _(study):
    rows = _alt_first_platforms(study)
    worst = max((abs(sum(r.shares.values()) - 1.0) for r in rows), default=0)
    return (bool(rows) and worst < 1e-9,
            f"{len(rows)} domains, max |sum - 1| = {worst:.2e}")


@_claim("fig08.hop-edges",
        "over 10 platform-to-platform first-hop edges (mainstream)")
def _(study):
    hops = graphs.platform_hop_weights(ecosystem_graph(study.data, MAIN),
                                       GRAPH_PLATFORMS)
    return sum(hops.values()) > 10, f"{sum(hops.values())} hop edges"


@_claim("fig09.branching-expectation",
        "simulated totals below 3x the analytic branching expectation + 30")
def _(study):
    params, events = hawkes_demo()
    counts = events.events_per_process()
    expected = expected_total_events(params, 10_000)
    return (events.total_events > 0 and all(counts < 3 * expected + 30),
            f"simulated {counts.tolist()} vs expected "
            f"{np.round(expected, 1).tolist()}")


@_claim("fig09.over-dispersed",
        "event counts over-dispersed relative to Poisson")
def _(study):
    dense = hawkes_demo()[1].to_dense().sum(axis=1)
    windows = dense[:len(dense) // 100 * 100].reshape(100, -1).sum(axis=1)
    dispersion = windows.var() / max(windows.mean(), 1e-9)
    return dispersion > 1.0, f"index of dispersion {dispersion:.2f}"


# ---------------------------------------------------------------------------
# Table 11, Figures 10-11: the Section 5 fits
# ---------------------------------------------------------------------------

TWITTER, POL, THE_DONALD = PLATFORM_TWITTER, PLATFORM_POL, "The_Donald"


@_claim("table11.selection-rule", "every selected URL has Twitter and /pol/ "
        "events, over 10 per category", processes=(TWITTER, POL))
def _(study):
    urls = study.corpus_summary().urls
    counts = {c.value: (int(urls[c][_index(study, TWITTER)]),
                        int(urls[c][_index(study, POL)])) for c in (ALT, MAIN)}
    return (all(t == p and t > 10 for t, p in counts.values()),
            f"(Twitter, /pol/) URLs: {counts}")


def _twitter_tops(field: str, categories):
    """Check: Twitter ranks first on a corpus-summary ``field``."""
    def check(study):
        values = getattr(study.corpus_summary(), field)
        tops = [study.ecosystem.processes[values[c].argmax()]
                for c in categories]
        return all(top == TWITTER for top in tops), f"largest: {tops}"
    return check


_add("table11.twitter-most-events",
     "Twitter holds the most events in both categories",
     _twitter_tops("events", (ALT, MAIN)), processes=HAWKES_PROCESSES)


@_claim("table11.mainstream-corpus-larger",
        "the mainstream corpus is larger than the alternative",
        processes=(TWITTER,))
def _(study):
    urls = study.corpus_summary().urls
    alt, main = (int(urls[c][_index(study, TWITTER)]) for c in (ALT, MAIN))
    return main > alt, f"{main} main vs {alt} alt URLs"


@_claim("table11.the-donald-background",
        "The_Donald's alternative λ0 exceeds half its mainstream λ0",
        processes=(THE_DONALD,))
def _(study):
    background = study.corpus_summary().mean_background
    alt, main = (background[c][_index(study, THE_DONALD)] for c in (ALT, MAIN))
    return alt > 0.5 * main, f"λ0 alt {alt:.6f} vs main {main:.6f}"


_add("table11.twitter-top-background",
     "Twitter has the highest mean alternative background rate",
     _twitter_tops("mean_background", (ALT,)), processes=HAWKES_PROCESSES)


@_claim("fig10.twitter-self-max",
        "W(Twitter→Twitter) is the largest weight in both categories",
        processes=HAWKES_PROCESSES)
def _(study):
    agg, processes = study.aggregate(), study.ecosystem.processes
    cells = [np.unravel_index(mean.argmax(), mean.shape)
             for mean in (agg.mean_alternative, agg.mean_mainstream)]
    tops = [f"{processes[i]}→{processes[j]}" for i, j in cells]
    return tops == [f"{TWITTER}→{TWITTER}"] * 2, f"largest: {tops}"


@_claim("fig10.twitter-alt-self-stronger",
        "Twitter self-excitation is stronger for alternative URLs",
        processes=(TWITTER,))
def _(study):
    agg = study.aggregate()
    t = _index(study, TWITTER)
    alt, main = agg.mean_alternative[t, t], agg.mean_mainstream[t, t]
    return alt > main, f"W(T→T) {alt:.4f} alt vs {main:.4f} main"


@_claim("fig10.ground-truth-recovery", "recovered weights correlate "
        "(r > 0.5) with the generating Figure 10 matrices",
        processes=HAWKES_PROCESSES)
def _(study):
    agg = study.aggregate()
    axes = [_index(study, p) for p in HAWKES_PROCESSES]
    cells = np.ix_(axes, axes)
    corrs = [np.corrcoef(measured[cells].ravel(), truth.ravel())[0, 1]
             for measured, truth in (
                 (agg.mean_alternative, truth.PAPER_WEIGHTS_ALTERNATIVE),
                 (agg.mean_mainstream, truth.PAPER_WEIGHTS_MAINSTREAM))]
    return (all(r > 0.5 for r in corrs),
            f"correlation alt {corrs[0]:.3f}, main {corrs[1]:.3f}")


@_claim("fig10.weights-in-range", "mean alternative weights lie in [0, 1)")
def _(study):
    mean = study.aggregate().mean_alternative
    return (mean.max() < 1.0 and mean.min() >= 0.0,
            f"range [{mean.min():.4f}, {mean.max():.4f}]")


@_claim("fig11.percentages-valid",
        "influence percentages are finite and non-negative")
def _(study):
    pcts = [study.percentages(c) for c in (ALT, MAIN)]
    return (all(np.all(p >= 0) and np.all(np.isfinite(p)) for p in pcts),
            f"min (alt, main): {[round(float(p.min()), 3) for p in pcts]}")


@_claim("fig11.twitter-top-source",
        "Twitter is the top single source for at least 4 destinations",
        processes=HAWKES_PROCESSES)
def _(study):
    pct = study.percentages(ALT)
    twitter = _index(study, TWITTER)
    k = len(study.ecosystem.processes)
    wins = sum(1 for j in range(k) if j != twitter
               and pct[twitter, j] == max(pct[i, j] for i in range(k)
                                          if i != j))
    return wins >= 4, f"Twitter top source for {wins}/{k - 1} destinations"


@_claim("fig11.fringe-influences-twitter",
        "The_Donald + /pol/ cause over 1% of Twitter's alternative events",
        processes=(THE_DONALD, POL, TWITTER))
def _(study):
    pct = study.percentages(ALT)
    twitter = _index(study, TWITTER)
    td, pol = (pct[_index(study, p), twitter] for p in (THE_DONALD, POL))
    return td + pol > 1.0, f"The_Donald {td:.2f}% + /pol/ {pol:.2f}%"


@_claim("fig11.twitter-over-pol", "Twitter influences /pol/ more than /pol/ "
        "influences Twitter (alternative)", processes=(TWITTER, POL))
def _(study):
    pct = study.percentages(ALT)
    twitter, pol = _index(study, TWITTER), _index(study, POL)
    return (pct[twitter, pol] > pct[pol, twitter],
            f"T→/pol/ {pct[twitter, pol]:.2f}% vs /pol/→T "
            f"{pct[pol, twitter]:.2f}%")


#: Every registered claim, in experiment order.
CLAIMS: tuple[Claim, ...] = tuple(sorted(
    _REGISTERED,
    key=lambda c: [e.exp_id for e in EXPERIMENTS].index(c.experiment)))


def evaluate(claim: Claim, study) -> ClaimResult:
    """Run one claim; a raising check is a failure, never an exception."""
    if not claim.applies_to(study.ecosystem):
        return ClaimResult(claim, None, "needs processes: " + ", ".join(
            p for p in claim.processes if p not in study.ecosystem.processes))
    try:
        passed, detail = claim.check(study)
    except Exception as exc:  # a broken claim must not stop the others
        return ClaimResult(claim, False, f"error: {exc!r}")
    return ClaimResult(claim, bool(passed), detail)


def run_claims(study, include_fits: bool = True) -> list[ClaimResult]:
    """Every claim on ``study`` (fit-reading experiments optional)."""
    return [evaluate(claim, study) for claim in CLAIMS
            if include_fits or not by_id(claim.experiment).needs_fits]


def format_results(results: list[ClaimResult]) -> str:
    """Pass/fail report: a count line, then one entry per claim."""
    applicable = [r for r in results if r.passed is not None]
    lines = [f"{sum(r.passed for r in applicable)}/{len(applicable)} "
             f"claims reproduced; {len(results) - len(applicable)} do not "
             "apply to this ecosystem"]
    for result in results:
        claim = result.claim
        lines.append(f"  [{result.status}] {claim.experiment}: {claim.text}"
                     f" ({claim.claim_id})")
        lines.append(f"         {result.detail}")
    return "\n".join(lines)
