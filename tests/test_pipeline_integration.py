"""End-to-end integration tests over the session-scoped small world."""

import numpy as np
import pytest

from repro.analysis import characterization as chz
from repro.analysis import sequences, temporal
from repro.config import (
    HAWKES_PROCESSES,
    HawkesConfig,
    SELECTED_SUBREDDITS,
    STUDY_END,
    STUDY_START,
    TWITTER_GAPS,
)
from repro.core import (
    aggregate_weights,
    corpus_background_rates,
    fit_corpus,
    influence_percentages,
    select_urls,
    trim_gap_urls,
)
from repro.news.domains import NewsCategory
from repro.pipeline import influence_cascades

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM


class TestCollection:
    def test_all_platforms_collected(self, collected):
        assert len(collected.twitter) > 100
        assert len(collected.reddit) > 200
        assert len(collected.fourchan) > 30

    def test_twitter_gap_windows_empty(self, collected):
        from repro.timeutil import in_any_interval
        for record in collected.twitter:
            assert not in_any_interval(record.created_at, TWITTER_GAPS)

    def test_slices_partition_reddit(self, collected):
        assert (len(collected.reddit_six) + len(collected.reddit_other)
                == len(collected.reddit))

    def test_pol_is_largest_board(self, collected):
        assert len(collected.pol) > len(collected.fourchan_other)

    def test_recrawl_retrieval_fractions(self, collected):
        alt = collected.recrawl.alternative
        main = collected.recrawl.mainstream
        assert 0.6 < alt.retrieved_fraction < 0.95
        assert 0.7 < main.retrieved_fraction < 0.98
        # the paper: alternative tweets vanish more often
        assert alt.retrieved_fraction < main.retrieved_fraction + 0.05

    def test_url_domains_mapping(self, collected):
        domains = collected.url_domains()
        assert domains
        assert all("." in d for d in domains.values())


class TestCharacterizationShape:
    def test_table1_alt_smaller_than_main(self, collected):
        world = collected.world
        rows = chz.total_post_shares(
            {"twitter": world.twitter.total_posts,
             "reddit": world.reddit.total_posts,
             "4chan": world.fourchan.total_posts},
            {"twitter": collected.twitter, "reddit": collected.reddit,
             "4chan": collected.fourchan})
        for row in rows:
            assert row.pct_alternative < row.pct_mainstream
            assert row.pct_alternative > 0

    def test_breitbart_tops_alternative_everywhere(self, collected):
        for dataset in (collected.twitter, collected.reddit_six,
                        collected.pol):
            ranked = chz.top_domains(dataset, ALT, top_n=5)
            assert ranked[0].name == "breitbart.com"

    def test_the_donald_tops_alt_subreddits(self, collected):
        ranked = chz.top_subreddits(collected.reddit, ALT, top_n=5)
        assert ranked[0].name == "The_Donald"

    def test_user_fraction_shape(self, collected):
        result = chz.user_alternative_fraction(collected.twitter)
        # Fig 3: most users share only mainstream news
        assert result.pct_mainstream_only > 50
        assert result.pct_alternative_only > 3


class TestTemporalShape:
    def test_daily_series_cover_window(self, collected):
        series = temporal.daily_occurrence(
            collected.twitter, "Twitter", STUDY_START, STUDY_END)
        assert series.n_days >= 240
        assert series.alternative.sum() > 0

    def test_gap_days_have_zero_twitter_activity(self, collected):
        series = temporal.daily_occurrence(
            collected.twitter, "Twitter", STUDY_START, STUDY_END)
        from repro.timeutil import SECONDS_PER_DAY
        gap = TWITTER_GAPS[1]  # Nov 5-16
        day0 = (gap.start - STUDY_START) // SECONDS_PER_DAY
        day1 = (gap.end - STUDY_START) // SECONDS_PER_DAY
        assert series.alternative[day0:day1].sum() == 0
        assert series.mainstream[day0:day1].sum() == 0

    def test_repost_lags_exist(self, collected):
        ecdf = temporal.repost_lag_cdf(collected.twitter, MAIN)
        assert ecdf is not None
        assert ecdf.n > 10

    def test_sequences_mostly_single_platform(self, collected):
        rows = sequences.first_hop_distribution(
            collected.sequence_slices(), MAIN)
        singles = sum(r.percentage for r in rows if "only" in r.sequence)
        assert singles > 50  # Table 9: most URLs stay on one platform

    def test_triplet_sequences_present(self, collected):
        rows = sequences.triplet_distribution(
            collected.sequence_slices(), MAIN)
        assert sum(r.count for r in rows) > 5


class TestInfluencePipeline:
    @pytest.fixture(scope="class")
    def corpus(self, cascades):
        selected = select_urls(cascades)
        return trim_gap_urls(selected, TWITTER_GAPS, 0.10)

    def test_selection_nonempty(self, corpus):
        assert len(corpus) > 20

    def test_selected_have_required_platforms(self, corpus):
        for cascade in corpus:
            present = {name for _, name in cascade.events}
            assert "Twitter" in present
            assert "/pol/" in present
            assert present & set(SELECTED_SUBREDDITS)

    def test_fit_and_aggregate(self, corpus):
        config = HawkesConfig(gibbs_iterations=25, gibbs_burn_in=8)
        rng = np.random.default_rng(42)
        # fit a balanced subsample to keep the test fast
        alt = [c for c in corpus if c.category == ALT][:8]
        main = [c for c in corpus if c.category == MAIN][:8]
        result = fit_corpus(alt + main, config, rng=rng)
        agg = aggregate_weights(result)
        assert agg.mean_alternative.shape == (8, 8)
        assert np.all(agg.mean_alternative >= 0)
        pct = influence_percentages(result, MAIN)
        assert np.all(pct >= 0)
        summary = corpus_background_rates(result)
        twitter_idx = HAWKES_PROCESSES.index("Twitter")
        assert summary.urls[ALT][twitter_idx] == len(alt)
        assert summary.urls[MAIN][twitter_idx] == len(main)
