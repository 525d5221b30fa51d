"""Tests for story arrivals and cascade generation."""

import numpy as np
import pytest

from repro.config import SELECTED_SUBREDDITS, STUDY_END, STUDY_START
from repro.news.articles import ArticleGenerator
from repro.news.domains import NewsCategory
from repro.synthesis.cascades import CascadeEngine, StoryCascade
from repro.synthesis.params import default_ground_truth
from repro.synthesis.stories import DEFAULT_SPIKES, StoryArrivals
from repro.timeutil import SECONDS_PER_DAY, utc


class TestStoryArrivals:
    def test_daily_rates_sum_to_total(self):
        arrivals = StoryArrivals()
        rates = arrivals.daily_rates(1000)
        assert rates.sum() == pytest.approx(1000)

    def test_election_day_spike(self):
        arrivals = StoryArrivals()
        rates = arrivals.daily_rates(1000)
        election = (utc(2016, 11, 8) - STUDY_START) // SECONDS_PER_DAY
        ordinary = (utc(2016, 8, 2) - STUDY_START) // SECONDS_PER_DAY
        assert rates[election] > 2.5 * rates[ordinary]

    def test_weekend_dip(self):
        arrivals = StoryArrivals(spikes=())
        rates = arrivals.daily_rates(1000)
        sat = (utc(2016, 7, 2) - STUDY_START) // SECONDS_PER_DAY
        fri = (utc(2016, 7, 1) - STUDY_START) // SECONDS_PER_DAY
        assert rates[sat] < rates[fri]

    def test_sample_inside_window(self, rng):
        arrivals = StoryArrivals()
        schedule = arrivals.sample("alt", 500, rng)
        assert schedule.timestamps.min() >= STUDY_START
        assert schedule.timestamps.max() < STUDY_END
        assert np.all(np.diff(schedule.timestamps) >= 0)

    def test_sample_count_near_target(self, rng):
        arrivals = StoryArrivals()
        schedule = arrivals.sample("alt", 2000, rng)
        assert len(schedule) == pytest.approx(2000, rel=0.1)

    def test_spikes_in_window(self):
        for epoch, factor in DEFAULT_SPIKES:
            assert STUDY_START <= epoch < STUDY_END
            assert factor > 1


@pytest.fixture(scope="module")
def engine():
    return CascadeEngine(default_ground_truth(),
                         np.random.default_rng(21))


@pytest.fixture(scope="module")
def article_gen(registry):
    return ArticleGenerator(registry, seed=77)


class TestCascadeEngine:
    def test_every_story_has_events(self, engine, article_gen):
        for i in range(50):
            article = article_gen.generate(NewsCategory.ALTERNATIVE,
                                           STUDY_START + i * 3600)
            cascade = engine.generate(article)
            assert len(cascade.events) >= 1

    def test_events_sorted_and_inside_study(self, engine, article_gen):
        article = article_gen.generate(NewsCategory.MAINSTREAM,
                                       STUDY_START + 1000)
        cascade = engine.generate(article)
        times = [t for t, _ in cascade.events]
        assert times == sorted(times)
        assert all(t < STUDY_END for t in times)

    def test_event_processes_known(self, engine, article_gen):
        known = set(default_ground_truth().processes) | set(
            SELECTED_SUBREDDITS)
        for i in range(30):
            article = article_gen.generate(NewsCategory.ALTERNATIVE,
                                           STUDY_START + i * 7200)
            cascade = engine.generate(article)
            for _, name in cascade.events:
                assert name in known

    def test_local_story_stays_near_home(self, engine, article_gen):
        article = article_gen.generate(NewsCategory.MAINSTREAM,
                                       STUDY_START)
        cascade = engine.generate(article, viral=False, home="Twitter")
        platforms = {name for _, name in cascade.events}
        # home plus at most one leak
        assert "Twitter" in platforms
        assert len(platforms) <= 2

    def test_viral_flag_recorded(self, engine, article_gen):
        article = article_gen.generate(NewsCategory.ALTERNATIVE,
                                       STUDY_START)
        cascade = engine.generate(article, viral=True)
        assert cascade.viral

    def test_viral_stories_spread_more(self, article_gen):
        engine = CascadeEngine(default_ground_truth(),
                               np.random.default_rng(3))
        viral_platforms = []
        local_platforms = []
        for i in range(120):
            article = article_gen.generate(NewsCategory.MAINSTREAM,
                                           STUDY_START + i * 3600)
            for viral, counts in ((True, viral_platforms),
                                  (False, local_platforms)):
                cascade = engine.generate(article, viral=viral)
                counts.append(len({name for _, name in cascade.events}))
        assert np.mean(viral_platforms) > np.mean(local_platforms)

    def test_bad_impulse_rejected_when_engine_is_built(self):
        class Unnormalized(type(default_ground_truth())):
            def impulse(self):
                return 2.0 * super().impulse()

        with pytest.raises(ValueError, match="sum to 1"):
            CascadeEngine(Unnormalized(), np.random.default_rng(0))

    def test_pick_local_home_distribution(self):
        engine = CascadeEngine(default_ground_truth(),
                               np.random.default_rng(8))
        homes = [engine.pick_local_home(False) for _ in range(2000)]
        twitter_share = homes.count("Twitter") / len(homes)
        assert twitter_share == pytest.approx(0.33, abs=0.05)
        # subreddit homes resolve to actual subreddit names
        assert any(h in SELECTED_SUBREDDITS for h in homes)

    def test_recycling_extends_tail(self, article_gen):
        truth = default_ground_truth()
        always = type(truth)(recycle_prob=1.0,
                             recycle_max_posts=3)
        engine = CascadeEngine(always, np.random.default_rng(10))
        article = article_gen.generate(NewsCategory.MAINSTREAM,
                                       STUDY_START)
        cascade = engine.generate(article, viral=False, home="Twitter")
        span = max(t for t, _ in cascade.events) - min(
            t for t, _ in cascade.events)
        assert span > 3600  # recycled posts at least an hour later

    def test_url_property(self, engine, article_gen):
        article = article_gen.generate(NewsCategory.MAINSTREAM, STUDY_START)
        cascade = engine.generate(article)
        assert cascade.url == article.url
