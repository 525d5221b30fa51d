"""A Reddit simulator: subreddits, link posts, threaded comments, votes.

The paper consumes Reddit as posts + comments grouped by subreddit; the
simulator also supports bot accounts (allowed on Reddit per its API
rules, Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import IdAllocator, Post

PLATFORM_NAME = "reddit"


@dataclass
class Subreddit:
    """A community; moderation policy reduced to an automation flag."""

    name: str
    created_at: int
    is_automated: bool = False  # e.g. /r/AutoNewspaper-style feeds
    post_ids: list[str] = field(default_factory=list)


@dataclass
class RedditPost:
    """A submission: a URL or self text plus a title, with votes."""

    post_id: str
    subreddit: str
    author_id: str
    created_at: int
    title: str
    body: str = ""
    ups: int = 1
    downs: int = 0

    @property
    def score(self) -> int:
        return self.ups - self.downs

    def to_post(self) -> Post:
        text = f"{self.title}\n{self.body}".strip()
        return Post(
            post_id=self.post_id,
            platform=PLATFORM_NAME,
            community=self.subreddit,
            author_id=self.author_id,
            created_at=self.created_at,
            text=text,
        )


@dataclass
class RedditComment:
    """A threaded comment; ``parent_id`` is a post or another comment."""

    comment_id: str
    post_id: str
    parent_id: str
    subreddit: str
    author_id: str
    created_at: int
    body: str
    ups: int = 1
    downs: int = 0

    @property
    def score(self) -> int:
        return self.ups - self.downs

    def to_post(self) -> Post:
        return Post(
            post_id=self.comment_id,
            platform=PLATFORM_NAME,
            community=self.subreddit,
            author_id=self.author_id,
            created_at=self.created_at,
            text=self.body,
        )


class RedditError(Exception):
    """Raised for operations the real service would reject."""


class RedditPlatform:
    """In-memory Reddit with subreddits, submissions, comments, voting."""

    def __init__(self) -> None:
        self._ids = IdAllocator()
        self.subreddits: dict[str, Subreddit] = {}
        self.posts: dict[str, RedditPost] = {}
        self.comments: dict[str, RedditComment] = {}
        self.unmaterialized_posts: int = 0

    # -- communities ---------------------------------------------------------

    def create_subreddit(self, name: str, created_at: int = 0,
                         is_automated: bool = False) -> Subreddit:
        if name in self.subreddits:
            raise RedditError(f"subreddit {name!r} already exists")
        sub = Subreddit(name=name, created_at=created_at,
                        is_automated=is_automated)
        self.subreddits[name] = sub
        return sub

    def ensure_subreddit(self, name: str, created_at: int = 0) -> Subreddit:
        if name not in self.subreddits:
            return self.create_subreddit(name, created_at)
        return self.subreddits[name]

    # -- content -------------------------------------------------------------

    def submit_post(self, subreddit: str, author_id: str, title: str,
                    created_at: int, body: str = "") -> RedditPost:
        sub = self.subreddits.get(subreddit)
        if sub is None:
            raise RedditError(f"unknown subreddit {subreddit!r}")
        post = RedditPost(
            post_id=self._ids.next_id("rp"),
            subreddit=subreddit,
            author_id=author_id,
            created_at=created_at,
            title=title,
            body=body,
        )
        self.posts[post.post_id] = post
        sub.post_ids.append(post.post_id)
        return post

    def submit_comment(self, parent_id: str, author_id: str, body: str,
                       created_at: int) -> RedditComment:
        """Reply to a post or to another comment."""
        if parent_id in self.posts:
            post = self.posts[parent_id]
        elif parent_id in self.comments:
            post = self.posts[self.comments[parent_id].post_id]
        else:
            raise RedditError(f"unknown parent {parent_id!r}")
        comment = RedditComment(
            comment_id=self._ids.next_id("rc"),
            post_id=post.post_id,
            parent_id=parent_id,
            subreddit=post.subreddit,
            author_id=author_id,
            created_at=created_at,
            body=body,
        )
        self.comments[comment.comment_id] = comment
        return comment

    def vote(self, item_id: str, direction: int) -> None:
        """Upvote (+1) or downvote (-1) a post or comment."""
        if direction not in (1, -1):
            raise RedditError("direction must be +1 or -1")
        item: RedditPost | RedditComment | None
        item = self.posts.get(item_id) or self.comments.get(item_id)
        if item is None:
            raise RedditError(f"unknown item {item_id!r}")
        if direction == 1:
            item.ups += 1
        else:
            item.downs += 1

    def record_ambient_posts(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.unmaterialized_posts += count

    @property
    def total_posts(self) -> int:
        """Posts + comments, matching the paper's Reddit accounting."""
        return (len(self.posts) + len(self.comments)
                + self.unmaterialized_posts)
