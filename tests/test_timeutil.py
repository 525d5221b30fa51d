"""Tests for repro.timeutil intervals and conversions."""

import pytest
from hypothesis import given, strategies as st

from repro.timeutil import (
    Interval,
    in_any_interval,
    to_datetime,
    utc,
)


class TestUtc:
    def test_epoch_origin(self):
        assert utc(1970, 1, 1) == 0

    def test_known_date(self):
        # 2016-06-30T00:00:00Z
        assert utc(2016, 6, 30) == 1467244800

    def test_round_trip(self):
        epoch = utc(2016, 11, 8, 12, 30, 15)
        dt = to_datetime(epoch)
        assert (dt.year, dt.month, dt.day) == (2016, 11, 8)
        assert (dt.hour, dt.minute, dt.second) == (12, 30, 15)


class TestInterval:
    def test_duration(self):
        assert Interval(10, 30).duration == 20

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            Interval(30, 10)

    def test_empty_interval_allowed(self):
        assert Interval(5, 5).duration == 0

    def test_contains_half_open(self):
        iv = Interval(10, 20)
        assert iv.contains(10)
        assert iv.contains(19.999)
        assert not iv.contains(20)
        assert not iv.contains(9.999)


class TestIntervalSets:
    def test_in_any_interval(self):
        gaps = [Interval(0, 10), Interval(20, 30)]
        assert in_any_interval(5, gaps)
        assert in_any_interval(25, gaps)
        assert not in_any_interval(15, gaps)


@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_interval_contains_start_not_end(start, length):
    iv = Interval(start, start + length)
    if length:
        assert iv.contains(start)
    assert not iv.contains(start + length)
