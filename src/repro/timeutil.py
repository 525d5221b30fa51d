"""Time utilities shared across the reproduction.

All timestamps in the library are POSIX epoch seconds stored as plain
``int``/``float``.  The study window and crawler gap windows from the
paper are expressed as half-open intervals ``[start, end)`` of epoch
seconds; this module provides the conversions and the interval
membership tests used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400


def utc(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
        second: int = 0) -> int:
    """Return the epoch second for a UTC calendar timestamp."""
    dt = datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)
    return int(dt.timestamp())


def to_datetime(epoch: float) -> datetime:
    """Convert an epoch second to an aware UTC :class:`datetime`."""
    return datetime.fromtimestamp(epoch, tz=timezone.utc)


@dataclass(frozen=True)
class Interval:
    """A half-open time interval ``[start, end)`` in epoch seconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} precedes start {self.start}")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def contains(self, epoch: float) -> bool:
        return self.start <= epoch < self.end


def in_any_interval(epoch: float, intervals: Sequence[Interval]) -> bool:
    """True if ``epoch`` falls inside any of ``intervals``."""
    return any(iv.contains(epoch) for iv in intervals)
