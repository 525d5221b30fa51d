"""Tests for the Twitter platform simulator."""

import pytest

from repro.platforms.twitter import TWEET_MAX_CHARS, TwitterError, TwitterPlatform


@pytest.fixture()
def twitter():
    return TwitterPlatform()


@pytest.fixture()
def user(twitter):
    return twitter.register_user("alice", created_at=0)


class TestAccounts:
    def test_register(self, twitter):
        user = twitter.register_user("bob", created_at=10, is_bot=True,
                                     followers=42)
        assert twitter.users[user.user_id].is_bot
        assert user.followers == 42

    def test_unique_ids(self, twitter):
        a = twitter.register_user("a", 0)
        b = twitter.register_user("b", 0)
        assert a.user_id != b.user_id

    def test_suspend(self, twitter, user):
        twitter.suspend_user(user.user_id)
        assert twitter.users[user.user_id].suspended

    def test_suspend_unknown_raises(self, twitter):
        with pytest.raises(TwitterError):
            twitter.suspend_user("nope")


class TestTweeting:
    def test_post(self, twitter, user):
        tweet = twitter.post_tweet(user.user_id, "hello", 100)
        assert tweet.created_at == 100
        assert not tweet.is_retweet
        assert twitter.tweets[tweet.tweet_id] is tweet

    def test_firehose_order(self, twitter, user):
        t1 = twitter.post_tweet(user.user_id, "a", 1)
        t2 = twitter.post_tweet(user.user_id, "b", 2)
        assert twitter.firehose == [t1, t2]

    def test_140_char_limit(self, twitter, user):
        with pytest.raises(TwitterError):
            twitter.post_tweet(user.user_id, "x" * (TWEET_MAX_CHARS + 1), 0)

    def test_exactly_140_ok(self, twitter, user):
        tweet = twitter.post_tweet(user.user_id, "x" * TWEET_MAX_CHARS, 0)
        assert len(tweet.text) == TWEET_MAX_CHARS

    def test_suspended_cannot_post(self, twitter, user):
        twitter.suspend_user(user.user_id)
        with pytest.raises(TwitterError):
            twitter.post_tweet(user.user_id, "hi", 0)

    def test_unknown_user_cannot_post(self, twitter):
        with pytest.raises(TwitterError):
            twitter.post_tweet("ghost", "hi", 0)

    def test_hashtags_recorded(self, twitter, user):
        tweet = twitter.post_tweet(user.user_id, "hi", 0,
                                   hashtags=("maga",))
        assert tweet.hashtags == ("maga",)


class TestRetweets:
    def test_retweet_increments_count(self, twitter, user):
        other = twitter.register_user("bob", 0)
        original = twitter.post_tweet(user.user_id, "story", 0)
        rt = twitter.retweet(other.user_id, original.tweet_id, 5)
        assert original.retweet_count == 1
        assert rt.retweet_of == original.tweet_id
        assert rt.is_retweet
        assert "RT @alice" in rt.text

    def test_retweet_of_retweet_credits_original(self, twitter, user):
        b = twitter.register_user("b", 0)
        c = twitter.register_user("c", 0)
        original = twitter.post_tweet(user.user_id, "story", 0)
        rt1 = twitter.retweet(b.user_id, original.tweet_id, 1)
        rt2 = twitter.retweet(c.user_id, rt1.tweet_id, 2)
        assert original.retweet_count == 2
        assert rt2.retweet_of == original.tweet_id

    def test_retweet_preserves_embedded_url(self, twitter, user):
        original = twitter.post_tweet(
            user.user_id, "see http://cnn.com/a", 0)
        b = twitter.register_user("b", 0)
        rt = twitter.retweet(b.user_id, original.tweet_id, 1)
        assert "http://cnn.com/a" in rt.text

    def test_suspended_cannot_retweet(self, twitter, user):
        original = twitter.post_tweet(user.user_id, "x", 0)
        b = twitter.register_user("b", 0)
        twitter.suspend_user(b.user_id)
        with pytest.raises(TwitterError):
            twitter.retweet(b.user_id, original.tweet_id, 1)


class TestEngagementAndRecrawl:
    def test_like(self, twitter, user):
        tweet = twitter.post_tweet(user.user_id, "x", 0)
        twitter.like(tweet.tweet_id, 3)
        assert tweet.like_count == 3

    def test_fetch_available(self, twitter, user):
        tweet = twitter.post_tweet(user.user_id, "x", 0)
        assert twitter.fetch_tweet(tweet.tweet_id) is tweet

    def test_fetch_deleted_is_none(self, twitter, user):
        tweet = twitter.post_tweet(user.user_id, "x", 0)
        twitter.delete_tweet(tweet.tweet_id)
        assert twitter.fetch_tweet(tweet.tweet_id) is None

    def test_fetch_suspended_author_is_none(self, twitter, user):
        tweet = twitter.post_tweet(user.user_id, "x", 0)
        twitter.suspend_user(user.user_id)
        assert twitter.fetch_tweet(tweet.tweet_id) is None

    def test_fetch_unknown_is_none(self, twitter):
        assert twitter.fetch_tweet("t999") is None


class TestAccounting:
    def test_total_posts_with_ambient(self, twitter, user):
        twitter.post_tweet(user.user_id, "x", 0)
        twitter.record_ambient_posts(1000)
        assert twitter.total_posts == 1001

    def test_negative_ambient_rejected(self, twitter):
        with pytest.raises(ValueError):
            twitter.record_ambient_posts(-1)

    def test_to_post_conversion(self, twitter, user):
        tweet = twitter.post_tweet(user.user_id, "x", 7)
        post = tweet.to_post()
        assert post.platform == "twitter"
        assert post.community == "Twitter"
        assert post.created_at == 7
        assert post.author_id == user.user_id
