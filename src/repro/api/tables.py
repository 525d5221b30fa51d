"""Structured builders for the paper's Tables 1-11.

Each builder turns the analysis-layer row objects into a
:class:`TableArtifact` — a serializable (columns, rows) payload plus
the aligned monospace rendering the benchmarks and CLI print.  Tables
1-10 derive from collected data alone; Table 11 additionally needs the
fitted Hawkes corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import characterization as chz
from ..analysis import sequences, temporal
from ..news.domains import NewsCategory
from ..claims import by_id
from ..reporting.tables import render_table

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM

#: Tables that require the fitted influence corpus, not just data.
TABLES_NEEDING_FITS = frozenset({11})
TABLE_IDS = tuple(range(1, 12))


@dataclass(frozen=True)
class TableArtifact:
    """One rendered paper table: structured rows plus monospace text."""

    table_id: int
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def render(self) -> str:
        return render_table(self.columns, self.rows,
                            title=f"Table {self.table_id} — {self.title}")

    def to_payload(self) -> dict:
        """JSON-ready dict, shared by the CLI and the HTTP service."""
        return {
            "table": self.table_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "text": self.render(),
        }


def _artifact(table_id: int, columns, rows) -> TableArtifact:
    return TableArtifact(
        table_id=table_id,
        title=by_id(f"Table {table_id}").title,
        columns=tuple(columns),
        rows=tuple(tuple(row) for row in rows),
    )


def _named_slices(data) -> dict:
    named = {
        "Twitter": data.twitter,
        "Reddit (six selected subreddits)": data.reddit_six,
        "Reddit (other subreddits)": data.reddit_other,
        "4chan (/pol/)": data.pol,
        "4chan (other boards)": data.fourchan_other,
    }
    named.update(data.extra_slices())
    return named


def _table_1(data):
    world = data.world
    totals = {"Twitter": world.twitter.total_posts,
              "Reddit": world.reddit.total_posts,
              "4chan": world.fourchan.total_posts}
    datasets = {"Twitter": data.twitter, "Reddit": data.reddit,
                "4chan": data.fourchan}
    for spec in world.config.extra_platforms:
        if spec.key in data.extras:
            totals[spec.display] = world.extras[spec.key].total_posts
            datasets[spec.display] = data.extras[spec.key]
    rows = chz.total_post_shares(totals, datasets)
    return _artifact(1, ["Platform", "Total posts", "% alt", "% main"],
                     [[r.platform, r.total_posts, r.pct_alternative,
                       r.pct_mainstream] for r in rows])


def _table_2(data):
    rows = chz.dataset_overview(_named_slices(data))
    return _artifact(
        2, ["Community", "Posts w/ URLs", "Alt URLs", "Main URLs"],
        [[r.name, r.posts_with_urls, r.unique_alternative,
          r.unique_mainstream] for r in rows])


def _table_3(data):
    rows = chz.twitter_recrawl_stats(data.recrawl)
    return _artifact(
        3, ["Category", "Tweets", "Retrieved", "Retrieved %",
            "Mean RTs", "Std RTs", "Mean likes", "Std likes"],
        [[r.category.value, r.tweets, r.retrieved, r.retrieved_pct,
          r.mean_retweets, r.std_retweets, r.mean_likes, r.std_likes]
         for r in rows])


def _two_sided_ranking(table_id: int, label: str, alt_rows, main_rows):
    """Tables 4-7 layout: alternative and mainstream columns side by side."""
    rows = []
    for i in range(max(len(alt_rows), len(main_rows))):
        alt = alt_rows[i] if i < len(alt_rows) else None
        main = main_rows[i] if i < len(main_rows) else None
        rows.append([
            i + 1,
            alt.name if alt else "",
            alt.percentage if alt else "",
            main.name if main else "",
            main.percentage if main else "",
        ])
    return _artifact(
        table_id,
        ["Rank", f"Alt {label}", "Alt %", f"Main {label}", "Main %"],
        rows)


def _table_4(data):
    return _two_sided_ranking(
        4, "subreddit",
        chz.top_subreddits(data.reddit, ALT, 20),
        chz.top_subreddits(data.reddit, MAIN, 20))


def _domain_table(table_id: int, dataset):
    return _two_sided_ranking(
        table_id, "domain",
        chz.top_domains(dataset, ALT, 20),
        chz.top_domains(dataset, MAIN, 20))


def _table_8(data):
    pairs = {
        "Reddit6 vs Twitter": (data.reddit_six, data.twitter),
        "/pol/ vs Twitter": (data.pol, data.twitter),
        "/pol/ vs Reddit6": (data.pol, data.reddit_six),
    }
    for process, dataset in data.extra_slices().items():
        pairs[f"{process} vs Twitter"] = (dataset, data.twitter)
    rows = temporal.faster_platform_counts(pairs)
    return _artifact(
        8, ["Comparison", "News type", "#1 faster", "#2 faster"],
        [[r.comparison, r.category.value, r.faster_on_1, r.faster_on_2]
         for r in rows])


def _sequence_table(table_id: int, data, distribution):
    slices = data.sequence_slices()
    per_category = {category: {r.sequence: r
                               for r in distribution(slices, category)}
                    for category in (ALT, MAIN)}
    sequences_seen = sorted(set(per_category[ALT]) | set(per_category[MAIN]))
    rows = []
    for sequence in sequences_seen:
        alt = per_category[ALT].get(sequence)
        main = per_category[MAIN].get(sequence)
        rows.append([
            sequence,
            alt.count if alt else 0,
            alt.percentage if alt else 0.0,
            main.count if main else 0,
            main.percentage if main else 0.0,
        ])
    return _artifact(
        table_id, ["Sequence", "Alt URLs", "Alt %", "Main URLs", "Main %"],
        rows)


def _table_11(data, influence):
    from ..core.influence import corpus_background_rates

    summary = corpus_background_rates(influence)
    rows = []
    for i, process in enumerate(summary.processes):
        rows.append([
            process,
            int(summary.urls[ALT][i]), int(summary.events[ALT][i]),
            float(summary.mean_background[ALT][i]),
            int(summary.urls[MAIN][i]), int(summary.events[MAIN][i]),
            float(summary.mean_background[MAIN][i]),
        ])
    return _artifact(
        11, ["Process", "Alt URLs", "Alt events", "Alt mean bg",
             "Main URLs", "Main events", "Main mean bg"],
        rows)


def build_table(table_id: int, data, influence=None) -> TableArtifact:
    """Build Table ``table_id`` (1-11) from collected data (+ fits for 11)."""
    if table_id not in TABLE_IDS:
        raise KeyError(f"unknown table id {table_id!r} (expected 1-11)")
    if table_id == 1:
        return _table_1(data)
    if table_id == 2:
        return _table_2(data)
    if table_id == 3:
        return _table_3(data)
    if table_id == 4:
        return _table_4(data)
    if table_id == 5:
        return _domain_table(5, data.reddit_six)
    if table_id == 6:
        return _domain_table(6, data.twitter)
    if table_id == 7:
        return _domain_table(7, data.pol)
    if table_id == 8:
        return _table_8(data)
    if table_id == 9:
        return _sequence_table(9, data, sequences.first_hop_distribution)
    if table_id == 10:
        return _sequence_table(10, data, sequences.triplet_distribution)
    if influence is None:
        raise ValueError("Table 11 needs the fitted influence corpus")
    return _table_11(data, influence)
