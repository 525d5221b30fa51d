"""Tests for the Reddit platform simulator."""

import pytest

from repro.platforms.reddit import RedditError, RedditPlatform


@pytest.fixture()
def reddit():
    platform = RedditPlatform()
    platform.create_subreddit("politics", created_at=0)
    return platform


class TestSubreddits:
    def test_create(self, reddit):
        sub = reddit.create_subreddit("news", created_at=5)
        assert reddit.subreddits["news"] is sub

    def test_duplicate_rejected(self, reddit):
        with pytest.raises(RedditError):
            reddit.create_subreddit("politics")

    def test_ensure_idempotent(self, reddit):
        a = reddit.ensure_subreddit("politics")
        b = reddit.ensure_subreddit("politics")
        assert a is b

    def test_automated_flag(self, reddit):
        sub = reddit.create_subreddit("AutoNewspaper", is_automated=True)
        assert sub.is_automated


class TestPosts:
    def test_submit(self, reddit):
        post = reddit.submit_post("politics", "alice", "Title", 100,
                                  body="http://cnn.com/a")
        assert post.subreddit == "politics"
        assert post.score == 1  # self-upvote
        assert post.post_id in reddit.posts

    def test_unknown_subreddit_rejected(self, reddit):
        with pytest.raises(RedditError):
            reddit.submit_post("nope", "alice", "T", 0)

    def test_to_post_includes_title_and_body(self, reddit):
        post = reddit.submit_post("politics", "a", "Title", 3, body="B")
        converted = post.to_post()
        assert "Title" in converted.text
        assert "B" in converted.text
        assert converted.platform == "reddit"
        assert converted.community == "politics"


class TestComments:
    def test_comment_on_post(self, reddit):
        post = reddit.submit_post("politics", "a", "T", 0)
        comment = reddit.submit_comment(post.post_id, "b", "hi", 5)
        assert comment.post_id == post.post_id
        assert comment.parent_id == post.post_id
        assert comment.subreddit == "politics"

    def test_nested_comment(self, reddit):
        post = reddit.submit_post("politics", "a", "T", 0)
        c1 = reddit.submit_comment(post.post_id, "b", "hi", 5)
        c2 = reddit.submit_comment(c1.comment_id, "c", "reply", 6)
        assert c2.post_id == post.post_id
        assert c2.parent_id == c1.comment_id

    def test_unknown_parent_rejected(self, reddit):
        with pytest.raises(RedditError):
            reddit.submit_comment("ghost", "a", "x", 0)


class TestVoting:
    def test_upvote_post(self, reddit):
        post = reddit.submit_post("politics", "a", "T", 0)
        reddit.vote(post.post_id, 1)
        assert post.score == 2

    def test_downvote_comment(self, reddit):
        post = reddit.submit_post("politics", "a", "T", 0)
        comment = reddit.submit_comment(post.post_id, "b", "x", 1)
        reddit.vote(comment.comment_id, -1)
        assert comment.score == 0

    def test_invalid_direction(self, reddit):
        post = reddit.submit_post("politics", "a", "T", 0)
        with pytest.raises(RedditError):
            reddit.vote(post.post_id, 2)

    def test_unknown_item(self, reddit):
        with pytest.raises(RedditError):
            reddit.vote("ghost", 1)


class TestAccounting:
    def test_total_posts_counts_posts_and_comments(self, reddit):
        post = reddit.submit_post("politics", "a", "T", 0)
        reddit.submit_comment(post.post_id, "b", "c", 1)
        reddit.record_ambient_posts(100)
        assert reddit.total_posts == 102
