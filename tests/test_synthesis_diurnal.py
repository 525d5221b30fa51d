"""Tests for the diurnal-cycle extension."""

import numpy as np
import pytest

from repro.config import STUDY_START
from repro.news.articles import ArticleGenerator
from repro.news.domains import NewsCategory
from repro.synthesis.cascades import CascadeEngine
from repro.synthesis.diurnal import DiurnalProfile, apply_diurnal
from repro.synthesis.params import GroundTruth
from repro.timeutil import SECONDS_PER_DAY, SECONDS_PER_HOUR


def hourly_shares(timestamps) -> np.ndarray:
    """Observed share of ``timestamps`` in each UTC hour of the day."""
    hours = (np.asarray(timestamps) % SECONDS_PER_DAY) // SECONDS_PER_HOUR
    return np.bincount(hours.astype(int), minlength=24) / len(timestamps)


class TestProfile:
    def test_default_valid(self):
        profile = DiurnalProfile()
        assert profile.hourly.shape == (24,)
        assert abs(profile.normalized().sum() - 1.0) < 1e-12

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly=np.ones(12))

    def test_nonpositive_rejected(self):
        hourly = np.ones(24)
        hourly[3] = 0.0
        with pytest.raises(ValueError):
            DiurnalProfile(hourly=hourly)

    def test_sampling_follows_profile(self, rng):
        hourly = np.full(24, 1e-6)
        hourly[12] = 1.0
        profile = DiurnalProfile(hourly=hourly)
        seconds = profile.sample_second_of_day(rng, size=500)
        hours = (seconds // 3600).astype(int)
        assert (hours == 12).mean() > 0.95


class TestApplyDiurnal:
    def test_preserves_count_and_days(self, rng):
        events = [(float(STUDY_START + i * SECONDS_PER_DAY + 7000), "Twitter")
                  for i in range(10)]
        reshaped = apply_diurnal(events, rng)
        assert len(reshaped) == len(events)
        original_days = sorted(int(t // SECONDS_PER_DAY)
                               for t, _ in events)
        new_days = sorted(int(t // SECONDS_PER_DAY)
                          for t, _ in reshaped)
        assert new_days == original_days

    def test_first_event_anchored(self, rng):
        events = [(1000.0, "Twitter"), (50_000.0, "/pol/")]
        reshaped = apply_diurnal(events, rng, keep_first=True)
        assert (1000.0, "Twitter") in reshaped

    def test_sorted_output(self, rng):
        events = [(float(i * 40_000), "Twitter") for i in range(20)]
        reshaped = apply_diurnal(events, rng)
        times = [t for t, _ in reshaped]
        assert times == sorted(times)

    def test_empty(self, rng):
        assert apply_diurnal([], rng) == []

    def test_histogram_matches_profile(self, rng):
        hourly = np.full(24, 0.05)
        hourly[[20, 21, 22]] = 2.0
        profile = DiurnalProfile(hourly=hourly)
        events = [(float(i * 9973), "x") for i in range(4000)]
        reshaped = apply_diurnal(events, rng, profile, keep_first=False)
        histogram = hourly_shares([t for t, _ in reshaped])
        assert histogram[[20, 21, 22]].sum() > 0.5


class TestEngineIntegration:
    def test_diurnal_engine_produces_cycle(self, registry, rng):
        truth = GroundTruth(diurnal_enabled=True)
        engine = CascadeEngine(truth, rng)
        generator = ArticleGenerator(registry, seed=5)
        timestamps = []
        for i in range(250):
            article = generator.generate(
                NewsCategory.MAINSTREAM, STUDY_START + i * 7200)
            cascade = engine.generate(article)
            timestamps.extend(t for t, _ in cascade.events)
        histogram = hourly_shares(timestamps)
        # default profile: deep night (07-10 UTC) well below evening
        night = histogram[7:10].mean()
        evening = histogram[[22, 23, 0]].mean()
        assert evening > 1.5 * night

    def test_disabled_by_default(self):
        truth = GroundTruth()
        assert not truth.diurnal_enabled
