"""Data collection: crawlers, the 1% stream, gaps, and the dataset store.

Reproduces Section 2.2's infrastructure: a Twitter Streaming-API sampler
filtered to the 99 news domains (with the paper's outage windows), a
Pushshift-style full Reddit dump reader, a 4chan crawler racing thread
ephemerality (with its own outage windows), and a tweet re-crawler that
recovers engagement counts for still-available tweets.
"""

from .anonymize import AnonymizationKey, anonymize_dataset
from .store import Dataset, DatasetRecord, UrlOccurrence, iter_jsonl
from .streaming import TwitterStreamCollector
from .crawlers import FourchanCrawler, GenericCollector, RedditDumpReader
from .recrawl import RecrawlStats, TweetRecrawler

__all__ = [
    "AnonymizationKey",
    "anonymize_dataset",
    "Dataset",
    "DatasetRecord",
    "UrlOccurrence",
    "iter_jsonl",
    "TwitterStreamCollector",
    "FourchanCrawler",
    "GenericCollector",
    "RedditDumpReader",
    "RecrawlStats",
    "TweetRecrawler",
]
