"""Tests for synthetic user populations."""

from collections import Counter

import pytest

from repro.synthesis.users import (
    PopulationShape,
    REDDIT_SHAPE,
    TWITTER_SHAPE,
    UserArchetype,
    UserPopulation,
)


class TestShape:
    def test_defaults_follow_fig3(self):
        shape = TWITTER_SHAPE
        assert shape.mainstream_only == pytest.approx(0.80)
        assert shape.alternative_only == pytest.approx(0.13)

    def test_reddit_fewer_alt_only(self):
        assert REDDIT_SHAPE.alternative_only < TWITTER_SHAPE.alternative_only

    def test_overfull_shape_rejected(self):
        with pytest.raises(ValueError):
            PopulationShape(mainstream_only=0.8, alternative_only=0.3)


class TestPopulation:
    @pytest.fixture(scope="class")
    def population(self):
        return UserPopulation("u", 3000, TWITTER_SHAPE, seed=42)

    def test_size(self, population):
        assert len(population.profiles) == 3000

    def test_archetype_mix(self, population):
        counts = Counter(p.archetype for p in population.profiles)
        total = len(population.profiles)
        main_frac = counts[UserArchetype.MAINSTREAM_ONLY] / total
        alt_frac = counts[UserArchetype.ALTERNATIVE_ONLY] / total
        assert main_frac == pytest.approx(0.80, abs=0.03)
        assert alt_frac == pytest.approx(0.13, abs=0.02)

    def test_bots_mostly_in_alt_only(self, population):
        for bot in population.bots:
            assert bot.archetype == UserArchetype.ALTERNATIVE_ONLY

    def test_preferences_match_archetypes(self, population):
        for profile in population.profiles:
            if profile.archetype == UserArchetype.MAINSTREAM_ONLY:
                assert profile.alt_preference == 0.0
            elif profile.archetype == UserArchetype.ALTERNATIVE_ONLY:
                assert profile.alt_preference == 1.0
            else:
                assert 0.0 <= profile.alt_preference <= 1.0

    def test_mainstream_author_never_alt_only(self, population):
        for _ in range(300):
            author = population.sample_author(alternative=False)
            assert author.archetype != UserArchetype.ALTERNATIVE_ONLY

    def test_alternative_author_never_main_only(self, population):
        for _ in range(300):
            author = population.sample_author(alternative=True)
            assert author.archetype != UserArchetype.MAINSTREAM_ONLY

    def test_deterministic(self):
        a = UserPopulation("u", 50, seed=1)
        b = UserPopulation("u", 50, seed=1)
        assert [p.archetype for p in a.profiles] == \
            [p.archetype for p in b.profiles]

    def test_unique_names(self, population):
        names = [p.name for p in population.profiles]
        assert len(names) == len(set(names))

    def test_too_small_population_rejected(self):
        with pytest.raises(ValueError):
            UserPopulation("u", 2)

    def test_activity_positive_heavy_tail(self, population):
        activities = [p.activity for p in population.profiles]
        assert min(activities) >= 1.0
        assert max(activities) > 10  # Pareto tail exists
