"""Tests for article generation and URL classification."""

import itertools

import pytest

from repro.news import classify
from repro.news.articles import ArticleGenerator
from repro.news.classify import ClassifiedUrl, classify_url, extract_news_urls
from repro.news.domains import (
    MAINSTREAM_DOMAINS,
    NewsCategory,
    NewsRegistry,
    default_registry,
)
from repro.news.urls import canonicalize_url, extract_urls, registered_domain


class TestArticleGenerator:
    def test_generates_requested_category(self, registry):
        generator = ArticleGenerator(registry, seed=1)
        article = generator.generate(NewsCategory.ALTERNATIVE, 1000)
        assert article.category == NewsCategory.ALTERNATIVE
        assert article.is_alternative

    def test_url_is_canonical_and_classifiable(self, registry):
        generator = ArticleGenerator(registry, seed=2)
        article = generator.generate(NewsCategory.MAINSTREAM, 1000)
        classified = classify_url(article.url, registry)
        assert classified is not None
        assert classified.url == article.url
        assert classified.domain == article.domain

    def test_url_equals_canonicalized_raw_url(self, registry):
        # Only the host is canonicalized (once per domain): every
        # generated path must come out of canonicalize_url unchanged.
        generator = ArticleGenerator(registry, seed=8)
        paths = set()
        for domain in registry.domains:
            for t in range(12):
                article = generator.generate(domain.category, t,
                                             domain=domain)
                path = "/" + article.url.split("/", 3)[3]
                paths.add(path.split("/")[1])
                assert article.url == canonicalize_url(
                    f"http://{domain.name}{path}")
        assert paths == {"news", "2016", "article"}

    def test_urls_unique_across_batch(self, registry):
        generator = ArticleGenerator(registry, seed=3)
        articles = [generator.generate(NewsCategory.MAINSTREAM, t)
                    for t in range(200)]
        urls = {a.url for a in articles}
        assert len(urls) == 200

    def test_deterministic_for_seed(self, registry):
        a = ArticleGenerator(registry, seed=9).generate(
            NewsCategory.ALTERNATIVE, 5)
        b = ArticleGenerator(registry, seed=9).generate(
            NewsCategory.ALTERNATIVE, 5)
        assert a.url == b.url
        assert a.headline == b.headline

    def test_domain_weights_respected(self, registry):
        generator = ArticleGenerator(registry, seed=4)
        weights = {"breitbart.com": 1.0}
        articles = [generator.generate(NewsCategory.ALTERNATIVE, t,
                                       domain_weights=weights)
                    for t in range(50)]
        assert {a.domain for a in articles} == {"breitbart.com"}

    def test_explicit_domain(self, registry):
        generator = ArticleGenerator(registry, seed=5)
        domain = registry.lookup("cnn.com")
        article = generator.generate(NewsCategory.MAINSTREAM, 10,
                                     domain=domain)
        assert article.domain == "cnn.com"

    def test_category_domain_mismatch_raises(self, registry):
        generator = ArticleGenerator(registry, seed=6)
        domain = registry.lookup("cnn.com")
        with pytest.raises(ValueError):
            generator.generate(NewsCategory.ALTERNATIVE, 10, domain=domain)

    def test_headline_nonempty(self, registry):
        generator = ArticleGenerator(registry, seed=7)
        article = generator.generate(NewsCategory.MAINSTREAM, 10)
        assert article.headline
        assert article.headline == article.headline.strip()


class TestClassifyUrl:
    def test_mainstream(self, registry):
        result = classify_url("http://www.cnn.com/2016/story", registry)
        assert result is not None
        assert result.category == NewsCategory.MAINSTREAM
        assert not result.is_alternative

    def test_alternative(self, registry):
        result = classify_url("https://infowars.com/x", registry)
        assert result is not None
        assert result.is_alternative

    def test_non_news_is_none(self, registry):
        assert classify_url("http://example.com/a", registry) is None

    def test_result_url_is_canonical(self, registry):
        result = classify_url("https://www.cnn.com/a/", registry)
        assert result.url == "http://cnn.com/a"

    def test_empty_host(self, registry):
        assert classify_url("http:///path-only", registry) is None


class TestExtractNewsUrls:
    def test_filters_non_news(self, registry):
        text = "see http://cnn.com/a and http://example.com/b"
        found = extract_news_urls(text, registry)
        assert [u.domain for u in found] == ["cnn.com"]

    def test_deduplicates_same_canonical_url(self, registry):
        text = "http://cnn.com/a and https://www.cnn.com/a/"
        found = extract_news_urls(text, registry)
        assert len(found) == 1

    def test_keeps_distinct_urls(self, registry):
        text = "http://cnn.com/a http://cnn.com/b http://rt.com/c"
        found = extract_news_urls(text, registry)
        assert len(found) == 3
        categories = {u.category for u in found}
        assert categories == {NewsCategory.MAINSTREAM,
                              NewsCategory.ALTERNATIVE}

    def test_empty_text(self, registry):
        assert extract_news_urls("", registry) == []


def _world_raw_urls(world) -> list[str]:
    """Every distinct raw URL in the world's posts, in first-seen order."""
    texts = itertools.chain(
        (tweet.text for tweet in world.twitter.firehose),
        (post.to_post().text for post in world.reddit.posts.values()),
        (c.to_post().text for c in world.reddit.comments.values()),
        (post.to_post().text for thread in world.fourchan.threads.values()
         for post in thread.posts))
    return list(dict.fromkeys(
        url for text in texts for url in extract_urls(text)))


def _classify_directly(url: str, registry: NewsRegistry):
    host = registered_domain(url)
    entry = registry.lookup(host) if host else None
    if entry is None:
        return None
    return ClassifiedUrl(url=canonicalize_url(url), domain=entry.name,
                         category=entry.category)


class TestClassifyMemo:
    def test_memo_matches_direct_classification(self, small_world):
        registry = NewsRegistry()  # cold memo: the first pass all misses
        urls = _world_raw_urls(small_world)
        assert len(urls) > 100
        expected = [_classify_directly(url, registry) for url in urls]
        cold = [classify_url(url, registry) for url in urls]
        assert cold == expected
        warm = [classify_url(url, registry) for url in urls]
        assert warm == expected

    def test_registries_keep_separate_memos(self):
        url = "https://www.breitbart.com/2016/story"
        assert classify_url(url, default_registry()) is not None
        mainstream_only = NewsRegistry(domains=MAINSTREAM_DOMAINS)
        assert classify_url(url, mainstream_only) is None

    def test_memo_cleared_at_cap(self, monkeypatch):
        monkeypatch.setattr(classify, "MEMO_CAP", 2)
        registry = NewsRegistry()
        urls = ["http://cnn.com/a", "http://example.com/b",
                "https://www.rt.com/c/", "http://nytimes.com/d?utm_source=x",
                "http:///path-only"]
        expected = [_classify_directly(url, registry) for url in urls]
        for _ in range(2):
            for url, want in zip(urls, expected):
                assert classify_url(url, registry) == want
                assert len(registry._classified) <= 2

    def test_memo_outside_equality_and_repr(self):
        warm, cold = NewsRegistry(), NewsRegistry()
        before = repr(warm)
        classify_url("http://cnn.com/a", warm)
        classify_url("http://example.com/b", warm)
        assert warm == cold
        assert repr(warm) == before

    def test_memo_left_out_of_pickles(self):
        import pickle
        warm = NewsRegistry()
        classify_url("http://cnn.com/a", warm)
        clone = pickle.loads(pickle.dumps(warm))
        assert clone == warm and clone._classified == {}
        assert pickle.dumps(warm) == pickle.dumps(NewsRegistry())
        assert classify_url("http://cnn.com/a", clone) == classify_url(
            "http://cnn.com/a", warm)
