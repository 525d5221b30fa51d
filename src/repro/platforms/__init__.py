"""Platform substrates: Twitter, Reddit, and 4chan simulators.

Each simulator models the mechanics the paper's measurements depend on:
Twitter's retweets/likes and account suspension, Reddit's subreddits
with threaded voted comments, and 4chan's bump-ordered ephemeral
threads.  The collection layer crawls these objects the way the paper's
infrastructure crawled the real services.
"""

from .base import Post
from .generic import GenericPlatform
from .registry import PAPER_ECOSYSTEM, Ecosystem, PlatformSpec, make_ecosystem
from .twitter import Tweet, TwitterPlatform, TwitterUser
from .reddit import RedditComment, RedditPlatform, RedditPost, Subreddit
from .fourchan import FourchanBoard, FourchanPlatform, FourchanPost, FourchanThread

__all__ = [
    "Ecosystem",
    "GenericPlatform",
    "PAPER_ECOSYSTEM",
    "PlatformSpec",
    "Post",
    "make_ecosystem",
    "Tweet",
    "TwitterPlatform",
    "TwitterUser",
    "RedditComment",
    "RedditPlatform",
    "RedditPost",
    "Subreddit",
    "FourchanBoard",
    "FourchanPlatform",
    "FourchanPost",
    "FourchanThread",
]
