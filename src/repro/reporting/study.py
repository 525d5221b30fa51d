"""One-shot study report: the paper's sections rendered from a Study.

:func:`generate_study_report` walks the paper's structure — dataset
overview, characterization, temporal dynamics, sequences, influence —
and renders a single markdown report (also available as ``python -m
repro report``).  It is a pure rendering of the session's stage
artifacts: the ``overview`` stage (:func:`report_overview`) supplies
the header record counts and the Figure 3 and 5 lines, the table
stages Tables 2 and 5-10, and the corpus, ``fits`` and ``aggregate``
stages the Section 5 lines.  A warm render therefore never loads the
collected data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import characterization as chz
from ..analysis import temporal
from ..config import STUDY_END, STUDY_START
from ..core import influence_percentages
from ..news.domains import NewsCategory
from .tables import render_table

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM


def _section_overview(table2) -> str:
    table = render_table(table2.columns, table2.rows)
    return f"## Dataset overview (Table 2)\n\n```\n{table}\n```\n"


def _section_domains(rankings) -> str:
    """Top-5 lines from ``(name, table)`` pairs of Tables 5-7."""
    parts = ["## Top domains (Tables 5-7)\n"]
    for name, table in rankings:
        top = table.rows[:5]
        parts.append(f"**{name}** — alternative: " + ", ".join(
            f"{alt} ({pct:.1f}%)" for _, alt, pct, _, _ in top if alt))
        parts.append("mainstream: " + ", ".join(
            f"{main} ({pct:.1f}%)" for _, _, _, main, pct in top if main)
            + "\n")
    return "\n".join(parts)


@dataclass(frozen=True)
class ReportOverview:
    """What the report reads of the collected data (the ``overview`` stage)."""

    #: ``(count, process)`` header record counts: Twitter, Reddit and
    #: 4chan, then the scenario's extra platforms.
    records: tuple[tuple[int, str], ...]
    #: ``(slice, n_users, pct_mainstream_only, pct_alternative_only)``
    #: Figure 3 lines.
    users: tuple[tuple[str, int, float, float], ...]
    #: ``(slice, median_hours, fraction_within_24h)`` Figure 5 lines of
    #: the slices with at least one mainstream repost.
    repost_lags: tuple[tuple[str, float, float], ...]


def report_overview(data) -> ReportOverview:
    """Reduce collected data to the few numbers the report renders."""
    records = ((len(data.twitter), "Twitter"), (len(data.reddit), "Reddit"),
               (len(data.fourchan), "4chan"),
               *((len(dataset), process)
                 for process, dataset in data.extra_slices().items()))
    users = []
    for name, dataset in (("Twitter", data.twitter),
                          ("six subreddits", data.reddit_six)):
        fractions = chz.user_alternative_fraction(dataset)
        users.append((name, fractions.n_users,
                      fractions.pct_mainstream_only,
                      fractions.pct_alternative_only))
    lags = []
    for name, dataset in (("Twitter", data.twitter),
                          ("six subreddits", data.reddit_six),
                          ("/pol/", data.pol)):
        ecdf = temporal.repost_lag_cdf(dataset, MAIN)
        if ecdf is not None:
            lags.append((name, ecdf.median,
                         temporal.repost_lag_day_inflection(ecdf)))
    return ReportOverview(records=records, users=tuple(users),
                          repost_lags=tuple(lags))


def _section_users(overview: ReportOverview) -> str:
    parts = ["## Per-user behavior (Figure 3)\n"]
    for name, n_users, pct_main, pct_alt in overview.users:
        parts.append(
            f"- {name}: {n_users} users with news URLs; "
            f"{pct_main:.1f}% mainstream-only, "
            f"{pct_alt:.1f}% alternative-only")
    return "\n".join(parts) + "\n"


def _section_temporal(overview: ReportOverview, table8) -> str:
    parts = ["## Temporal dynamics (Figures 5-7, Table 8)\n"]
    for name, median, within_day in overview.repost_lags:
        parts.append(
            f"- {name}: median repost lag {median:.1f} h, "
            f"{100 * within_day:.0f}% of reposts within 24 h")
    table = render_table(table8.columns, table8.rows)
    parts.append(f"\n```\n{table}\n```\n")
    return "\n".join(parts)


def _section_sequences(table9, table10) -> str:
    parts = ["## Appearance sequences (Tables 9-10)\n"]
    # Each category's (count, %) column pair; a zero count marks a
    # sequence seen only in the other category.
    for category, column in ((ALT, 1), (MAIN, 3)):
        singles = sum(row[column + 1] for row in table9.rows
                      if row[column] and "only" in row[0])
        triples = [row for row in table10.rows if row[column]]
        top = sorted(triples, key=lambda row: -row[column])[:3]
        parts.append(
            f"- {category.value}: {singles:.0f}% single-platform; "
            "top triplets: " + ", ".join(
                f"{row[0]} ({row[column + 1]:.0f}%)" for row in top))
    return "\n".join(parts) + "\n"


def _section_influence(n_urls: int, result, aggregate) -> str:
    """Section 5 lines from the corpus size, fits and Figure 10 aggregate.

    ``aggregate`` is ``None`` when the corpus lacks a news category.
    The lines adapt to the K processes of ``result``, so K-platform
    scenarios render correctly.
    """
    if n_urls < 4:
        return ("## Influence estimation (Section 5)\n\n"
                "*Too few URLs qualify for the Hawkes corpus.*\n")
    parts = [f"## Influence estimation (Section 5, {n_urls} URLs)\n"]
    if aggregate is None:
        return parts[0] + "\n*Corpus lacks one of the news categories.*\n"
    processes = result.processes
    k = len(processes)
    twitter = (processes.index("Twitter") if "Twitter" in processes
               else k - 1)
    dest = processes[twitter]
    # The two highlighted sources: the paper's The_Donald and /pol/ when
    # present, otherwise the first two non-destination processes.
    sources = [name for name in ("The_Donald", "/pol/")
               if name in processes and name != dest]
    for name in processes:
        if len(sources) >= 2:
            break
        if name != dest and name not in sources:
            sources.append(name)
    change = aggregate.percent_change[twitter, twitter]
    # NaN marks cells where the mainstream mean is zero, so the percent
    # change is undefined — render "n/a", never "+nan%".
    change_text = f"{change:+.1f}%" if np.isfinite(change) else "n/a"
    parts.append(
        f"- W({dest}→{dest}): "
        f"{aggregate.mean_alternative[twitter, twitter]:.4f} "
        f"alternative vs {aggregate.mean_mainstream[twitter, twitter]:.4f} "
        f"mainstream ({change_text})")
    pct = influence_percentages(result, ALT)
    parts.append(
        f"- influence on {dest}'s alternative events: " + ", ".join(
            f"{name} {pct[processes.index(name), twitter]:.2f}%"
            for name in sources))
    stars = aggregate.significance_stars()
    significant = int((stars != "").sum())
    parts.append(f"- {significant}/{k * k} weight cells differ "
                 "significantly between categories (KS)")
    return "\n".join(parts) + "\n"


def generate_study_report(study, include_influence: bool = True) -> str:
    """Render the full report from a :class:`~repro.api.Study`'s stages."""
    overview = study.overview()
    records = ", ".join(f"{count} {process}"
                        for count, process in overview.records)
    sections = [
        "# Web Centipede study report\n",
        f"Window: {STUDY_START} .. {STUDY_END} (epoch seconds); "
        f"records: {records}.\n",
        _section_overview(study.table(2)),
        _section_domains((("Twitter", study.table(6)),
                          ("six subreddits", study.table(5)),
                          ("/pol/", study.table(7)))),
        _section_users(overview),
        _section_temporal(overview, study.table(8)),
        _section_sequences(study.table(9), study.table(10)),
    ]
    if include_influence:
        n_urls, result, aggregate = len(study.corpus), None, None
        if n_urls >= 4:
            result = study.influence()
            # Without fits in both news categories there is no Figure 10
            # aggregate to compute or cache, so do not ask the store.
            if all(result.of_category(category)
                   for category in NewsCategory):
                aggregate = study.aggregate()
        sections.append(_section_influence(n_urls, result, aggregate))
    return "\n".join(sections)
