"""A Twitter simulator with the mechanics the paper measures.

Users broadcast <=140-character tweets; tweets can be retweeted and
liked; accounts can later be suspended or tweets deleted, which is what
makes a fraction of tweets unavailable when the paper re-crawls them for
engagement counts (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import IdAllocator, Post

TWEET_MAX_CHARS = 140
PLATFORM_NAME = "twitter"


@dataclass
class TwitterUser:
    """An account; ``is_bot`` marks automated amplifiers (Section 3)."""

    user_id: str
    handle: str
    created_at: int
    is_bot: bool = False
    followers: int = 0
    suspended: bool = False


@dataclass
class Tweet:
    """One tweet.  ``retweet_of`` points at the original when a RT."""

    tweet_id: str
    user_id: str
    created_at: int
    text: str
    hashtags: tuple[str, ...] = ()
    retweet_of: str | None = None
    retweet_count: int = 0
    like_count: int = 0
    deleted: bool = False

    @property
    def is_retweet(self) -> bool:
        return self.retweet_of is not None

    def to_post(self) -> Post:
        return Post(
            post_id=self.tweet_id,
            platform=PLATFORM_NAME,
            community="Twitter",
            author_id=self.user_id,
            created_at=self.created_at,
            text=self.text,
        )


class TwitterError(Exception):
    """Raised for operations the real service would reject."""


class TwitterPlatform:
    """In-memory Twitter: users, tweets, retweets, likes, suspensions."""

    def __init__(self) -> None:
        self._ids = IdAllocator()
        self.users: dict[str, TwitterUser] = {}
        self.tweets: dict[str, Tweet] = {}
        #: Tweets in timeline order (append-only; mirrors the firehose).
        self.firehose: list[Tweet] = []
        #: Bulk counter for ambient traffic not materialized as objects.
        self.unmaterialized_posts: int = 0

    # -- accounts -----------------------------------------------------------

    def register_user(self, handle: str, created_at: int,
                      is_bot: bool = False, followers: int = 0) -> TwitterUser:
        user = TwitterUser(
            user_id=self._ids.next_id("u"),
            handle=handle,
            created_at=created_at,
            is_bot=is_bot,
            followers=followers,
        )
        self.users[user.user_id] = user
        return user

    def suspend_user(self, user_id: str) -> None:
        """Suspend an account; its tweets become unavailable to re-crawls."""
        self._require_user(user_id).suspended = True

    def _require_user(self, user_id: str) -> TwitterUser:
        user = self.users.get(user_id)
        if user is None:
            raise TwitterError(f"unknown user {user_id}")
        return user

    # -- tweeting -----------------------------------------------------------

    def post_tweet(self, user_id: str, text: str, created_at: int,
                   hashtags: tuple[str, ...] = ()) -> Tweet:
        user = self._require_user(user_id)
        if user.suspended:
            raise TwitterError(f"user {user_id} is suspended")
        if len(text) > TWEET_MAX_CHARS:
            raise TwitterError(
                f"tweet exceeds {TWEET_MAX_CHARS} characters ({len(text)})")
        tweet = Tweet(
            tweet_id=self._ids.next_id("t"),
            user_id=user_id,
            created_at=created_at,
            text=text,
            hashtags=hashtags,
        )
        self.tweets[tweet.tweet_id] = tweet
        self.firehose.append(tweet)
        return tweet

    def retweet(self, user_id: str, tweet_id: str, created_at: int) -> Tweet:
        """Rebroadcast ``tweet_id``; bumps the original's retweet count."""
        original = self._require_tweet(tweet_id)
        if original.is_retweet:  # retweeting a RT credits the original
            original = self._require_tweet(original.retweet_of)
        user = self._require_user(user_id)
        if user.suspended:
            raise TwitterError(f"user {user_id} is suspended")
        rt_text = f"RT @{self.users[original.user_id].handle}: {original.text}"
        tweet = Tweet(
            tweet_id=self._ids.next_id("t"),
            user_id=user_id,
            created_at=created_at,
            text=rt_text[:TWEET_MAX_CHARS + 20],  # RT prefix may overflow
            hashtags=original.hashtags,
            retweet_of=original.tweet_id,
        )
        original.retweet_count += 1
        self.tweets[tweet.tweet_id] = tweet
        self.firehose.append(tweet)
        return tweet

    def like(self, tweet_id: str, count: int = 1) -> None:
        self._require_tweet(tweet_id).like_count += count

    def delete_tweet(self, tweet_id: str) -> None:
        self._require_tweet(tweet_id).deleted = True

    def _require_tweet(self, tweet_id: str) -> Tweet:
        tweet = self.tweets.get(tweet_id)
        if tweet is None:
            raise TwitterError(f"unknown tweet {tweet_id}")
        return tweet

    # -- lookups used by collection ------------------------------------------

    def fetch_tweet(self, tweet_id: str) -> Tweet | None:
        """Re-crawl one tweet; ``None`` if deleted or author suspended."""
        tweet = self.tweets.get(tweet_id)
        if tweet is None or tweet.deleted:
            return None
        if self.users[tweet.user_id].suspended:
            return None
        return tweet

    def record_ambient_posts(self, count: int) -> None:
        """Account for background tweets not materialized as objects."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.unmaterialized_posts += count

    @property
    def total_posts(self) -> int:
        return len(self.tweets) + self.unmaterialized_posts
