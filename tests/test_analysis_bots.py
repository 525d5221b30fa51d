"""Tests for bot detection and the bot-removal counterfactual."""

import numpy as np
import pytest

from repro.analysis.bots import (
    UserFeatures,
    bot_score,
    detect_bots,
    evaluate_detection,
    extract_user_features,
)
from repro.collection.store import Dataset, DatasetRecord, UrlOccurrence
from repro.news.domains import NewsCategory

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM


def rec(author, t, url="http://breitbart.com/a", category=ALT,
        post_id=None):
    return DatasetRecord(
        post_id=post_id or f"{author}-{t}", platform="twitter",
        community="Twitter", author_id=author, created_at=float(t),
        urls=(UrlOccurrence(url, "breitbart.com", category),))


def bot_like_dataset():
    """One mechanical alt-only account plus one casual human."""
    records = []
    # bot: every 600s exactly, same URL, alt only, 50 posts
    for i in range(50):
        records.append(rec("bot1", 1000 + i * 600))
    # human: irregular, mixed, unique URLs
    human_times = [5000, 90000, 400000, 900000]
    for i, t in enumerate(human_times):
        category = MAIN if i % 2 else ALT
        records.append(rec("human1", t,
                           url=f"http://cnn.com/{i}", category=category))
    return Dataset(records)


class TestFeatureExtraction:
    def test_features_per_author(self):
        features = {f.author_id: f
                    for f in extract_user_features(bot_like_dataset())}
        assert set(features) == {"bot1", "human1"}
        bot = features["bot1"]
        human = features["human1"]
        assert bot.n_posts == 50
        assert bot.alternative_fraction == 1.0
        assert bot.gap_cv < 0.01          # metronome posting
        assert bot.unique_url_fraction < 0.1
        assert human.gap_cv > 0.2
        assert 0 < human.alternative_fraction < 1

    def test_posts_per_day(self):
        ds = Dataset([rec("u", 0), rec("u", 86400)])
        features = extract_user_features(ds)[0]
        assert features.posts_per_day == pytest.approx(2.0)

    def test_anonymous_ignored(self):
        ds = Dataset([DatasetRecord(
            post_id="x", platform="4chan", community="/pol/",
            author_id=None, created_at=0.0, urls=())])
        assert extract_user_features(ds) == []

    def test_single_post_user(self):
        ds = Dataset([rec("u", 100)])
        features = extract_user_features(ds)[0]
        assert features.n_posts == 1
        assert features.gap_cv == 1.0


class TestScoring:
    def test_bot_scores_higher_than_human(self):
        features = {f.author_id: f
                    for f in extract_user_features(bot_like_dataset())}
        assert bot_score(features["bot1"]) > bot_score(features["human1"])

    def test_score_bounded(self):
        extreme = UserFeatures(
            author_id="x", n_posts=10_000, posts_per_day=1e6,
            alternative_fraction=1.0, retweet_fraction=1.0,
            gap_cv=0.0, unique_url_fraction=0.0)
        assert bot_score(extreme) == 1.0
        mild = UserFeatures(
            author_id="y", n_posts=1, posts_per_day=0.01,
            alternative_fraction=0.0, retweet_fraction=0.0,
            gap_cv=2.0, unique_url_fraction=1.0)
        assert 0.0 <= bot_score(mild) < 0.2


class TestDetection:
    def test_detects_the_bot(self):
        result = detect_bots(bot_like_dataset(), threshold=0.5)
        assert "bot1" in result.detected
        assert "human1" not in result.detected

    def test_min_posts_guard(self):
        ds = Dataset([rec("tiny", 0), rec("tiny", 600)])
        result = detect_bots(ds, threshold=0.0, min_posts=3)
        assert "tiny" not in result.detected

    def test_filter_dataset(self):
        ds = bot_like_dataset()
        result = detect_bots(ds)
        filtered = result.filter_dataset(ds)
        assert len(filtered) == 4  # only the human's posts remain
        assert all(r.author_id != "bot1" for r in filtered)


class TestEvaluation:
    def test_perfect_detection(self):
        ds = bot_like_dataset()
        result = detect_bots(ds)
        quality = evaluate_detection(result, true_bots={"bot1"},
                                     all_authors={"bot1", "human1"})
        assert quality.precision == 1.0
        assert quality.recall == 1.0
        assert quality.f1 == 1.0

    def test_miss_counts_as_false_negative(self):
        ds = bot_like_dataset()
        result = detect_bots(ds, threshold=1.1)  # nothing detected
        quality = evaluate_detection(result, true_bots={"bot1"},
                                     all_authors={"bot1", "human1"})
        assert quality.recall == 0.0
        assert quality.f1 == 0.0


class TestOnSyntheticWorld:
    def test_detection_beats_chance(self, small_world, collected):
        """On the session world, detected accounts should be enriched
        in true bots relative to the base rate."""
        truth = {uid for uid, u in small_world.twitter.users.items()
                 if u.is_bot}
        authors = {r.author_id for r in collected.twitter
                   if r.author_id is not None}
        if not (truth & authors):
            pytest.skip("no bot posted in the small world sample")
        result = detect_bots(collected.twitter, threshold=0.5)
        quality = evaluate_detection(result, truth, authors)
        base_rate = len(truth & authors) / len(authors)
        if result.detected:
            assert quality.precision > base_rate
