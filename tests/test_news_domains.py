"""Tests for the 99-site news registry."""

import pytest

from repro.news.domains import (
    ALTERNATIVE_DOMAINS,
    MAINSTREAM_DOMAINS,
    NewsCategory,
    NewsDomain,
    NewsRegistry,
    REDDIT_ALT_SHARES,
    TWITTER_MAIN_SHARES,
    default_registry,
)


class TestRegistryComposition:
    def test_counts_match_paper(self):
        assert len(MAINSTREAM_DOMAINS) == 45
        assert len(ALTERNATIVE_DOMAINS) == 54

    def test_total_is_99(self):
        registry = default_registry()
        assert len(registry.domains) == 99

    def test_no_duplicates(self):
        names = [d.name for d in MAINSTREAM_DOMAINS + ALTERNATIVE_DOMAINS]
        assert len(names) == len(set(names))

    def test_state_sponsored_domains(self):
        registry = default_registry()
        sponsored = {d.name for d in registry.domains if d.state_sponsored}
        assert sponsored == {"rt.com", "sputniknews.com"}

    def test_key_alternative_outlets_present(self):
        names = {d.name for d in ALTERNATIVE_DOMAINS}
        for outlet in ("breitbart.com", "infowars.com", "rt.com",
                       "sputniknews.com", "beforeitsnews.com"):
            assert outlet in names

    def test_key_mainstream_outlets_present(self):
        names = {d.name for d in MAINSTREAM_DOMAINS}
        for outlet in ("nytimes.com", "cnn.com", "theguardian.com",
                       "bbc.com", "abcnews.go.com"):
            assert outlet in names

    def test_domain_validation_rejects_urls(self):
        with pytest.raises(ValueError):
            NewsDomain("http://breitbart.com", NewsCategory.ALTERNATIVE)


class TestLookup:
    def test_exact_match(self, registry):
        entry = registry.lookup("breitbart.com")
        assert entry is not None
        assert entry.category == NewsCategory.ALTERNATIVE

    def test_subdomain_match(self, registry):
        entry = registry.lookup("www.breitbart.com")
        assert entry is not None
        assert entry.name == "breitbart.com"

    def test_multi_label_domain(self, registry):
        entry = registry.lookup("abcnews.go.com")
        assert entry is not None
        assert entry.name == "abcnews.go.com"

    def test_go_com_alone_does_not_match(self, registry):
        assert registry.lookup("go.com") is None

    def test_unknown_domain(self, registry):
        assert registry.lookup("example.com") is None

    def test_case_insensitive(self, registry):
        assert registry.lookup("BREITBART.COM") is not None

    def test_trailing_dot(self, registry):
        assert registry.lookup("breitbart.com.") is not None

    def test_fake_abcnews_clone_is_alternative(self, registry):
        # abcnews.com.co was a notorious spoof of abcnews.go.com
        entry = registry.lookup("abcnews.com.co")
        assert entry is not None
        assert entry.category == NewsCategory.ALTERNATIVE


class TestCategorySlices:
    def test_mainstream_property(self, registry):
        assert len(registry.mainstream) == 45
        assert all(d.category == NewsCategory.MAINSTREAM
                   for d in registry.mainstream)

    def test_alternative_property(self, registry):
        assert len(registry.alternative) == 54

    def test_duplicate_registry_rejected(self):
        dupe = MAINSTREAM_DOMAINS + (MAINSTREAM_DOMAINS[0],)
        with pytest.raises(ValueError):
            NewsRegistry(domains=dupe)


class TestPopularityProfiles:
    @pytest.mark.parametrize("platform", ["reddit", "twitter", "pol"])
    @pytest.mark.parametrize("category", list(NewsCategory))
    def test_profiles_are_distributions(self, registry, platform, category):
        profile = registry.popularity_profile(platform, category)
        assert abs(sum(profile.values()) - 1.0) < 1e-9
        assert all(w >= 0 for w in profile.values())

    def test_profile_covers_whole_category(self, registry):
        profile = registry.popularity_profile(
            "reddit", NewsCategory.ALTERNATIVE)
        assert len(profile) == 54

    def test_breitbart_dominates_reddit_alt(self, registry):
        profile = registry.popularity_profile(
            "reddit", NewsCategory.ALTERNATIVE)
        assert profile["breitbart.com"] == max(profile.values())
        assert profile["breitbart.com"] > 0.5

    def test_guardian_tops_twitter_mainstream(self, registry):
        profile = registry.popularity_profile(
            "twitter", NewsCategory.MAINSTREAM)
        assert profile["theguardian.com"] == max(profile.values())

    def test_therealstrategy_twitter_specific(self, registry):
        # Figure 2: therealstrategy.com is popular only on Twitter.
        twitter = registry.popularity_profile(
            "twitter", NewsCategory.ALTERNATIVE)
        reddit = registry.popularity_profile(
            "reddit", NewsCategory.ALTERNATIVE)
        assert twitter["therealstrategy.com"] > 5 * reddit["therealstrategy.com"]

    def test_unknown_platform_raises(self, registry):
        with pytest.raises(KeyError):
            registry.popularity_profile("facebook", NewsCategory.MAINSTREAM)

    def test_share_tables_reference_registry_members(self, registry):
        names = {d.name for d in registry.domains}
        assert set(REDDIT_ALT_SHARES) <= names
        assert set(TWITTER_MAIN_SHARES) <= names
