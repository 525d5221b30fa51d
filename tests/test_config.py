"""Tests for the study configuration constants."""

import pytest

from repro.config import (
    FOURCHAN_GAPS,
    HAWKES_PROCESSES,
    HawkesConfig,
    PLATFORM_CODES,
    SELECTED_SUBREDDITS,
    SEQUENCE_PLATFORMS,
    STUDY_END,
    STUDY_START,
    STUDY_WINDOW,
    TWITTER_GAPS,
)
from repro.timeutil import SECONDS_PER_DAY, utc


class TestStudyWindow:
    def test_window_bounds(self):
        assert STUDY_START == utc(2016, 6, 30)
        assert STUDY_END == utc(2017, 3, 1)

    def test_window_spans_eight_months(self):
        days = (STUDY_END - STUDY_START) / SECONDS_PER_DAY
        assert 240 <= days <= 250

    def test_window_interval_consistent(self):
        assert STUDY_WINDOW.start == STUDY_START
        assert STUDY_WINDOW.end == STUDY_END


class TestGaps:
    def test_twitter_gaps_inside_window(self):
        for gap in TWITTER_GAPS:
            assert gap.start >= STUDY_START
            assert gap.end <= STUDY_END

    def test_fourchan_gaps_inside_window(self):
        for gap in FOURCHAN_GAPS:
            assert gap.start >= STUDY_START
            assert gap.end <= STUDY_END

    def test_twitter_gaps_disjoint_and_ordered(self):
        for a, b in zip(TWITTER_GAPS, TWITTER_GAPS[1:]):
            assert a.end <= b.start

    def test_longest_twitter_gap_is_nov_to_jan(self):
        longest = max(TWITTER_GAPS, key=lambda iv: iv.duration)
        assert longest.start == utc(2016, 11, 22)
        assert longest.end == utc(2017, 1, 14)

    def test_total_twitter_gap_days(self):
        # Oct 28-Nov 2 (6) + Nov 5-16 (12) + Nov 22-Jan 13 (53) + Feb 24-28 (5)
        total_days = sum(g.duration for g in TWITTER_GAPS) / SECONDS_PER_DAY
        assert 70 <= total_days <= 80


class TestProcesses:
    def test_eight_processes(self):
        assert len(HAWKES_PROCESSES) == 8

    def test_order_matches_paper_axes(self):
        assert HAWKES_PROCESSES[0] == "The_Donald"
        assert HAWKES_PROCESSES[-2:] == ("/pol/", "Twitter")

    def test_selected_subreddits_are_prefix(self):
        assert HAWKES_PROCESSES[:6] == SELECTED_SUBREDDITS

    def test_platform_codes(self):
        assert set(PLATFORM_CODES.values()) == {"4", "R", "T"}
        assert set(PLATFORM_CODES) == set(SEQUENCE_PLATFORMS)


class TestHawkesConfig:
    def test_defaults_match_paper(self):
        config = HawkesConfig()
        assert config.delta_t == 60
        assert config.max_lag_bins == 720  # 12 hours of minutes
        assert config.gap_trim_fraction == 0.10

    def test_frozen(self):
        config = HawkesConfig()
        with pytest.raises(AttributeError):
            config.delta_t = 30  # type: ignore[misc]
