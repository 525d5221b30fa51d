"""Diurnal activity modulation (optional realism extension).

The base cascade engine places events uniformly within their day-scale
dynamics; real platforms breathe with a day/night cycle.  This module
reshapes event timestamps to follow a 24-hour activity profile while
preserving each event's calendar day (so daily counts — Figure 4 — are
unchanged).  Disabled by default; enable via
``GroundTruth(diurnal_enabled=True)`` or apply manually.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..sampling import CategoricalCDF
from ..timeutil import SECONDS_PER_DAY, SECONDS_PER_HOUR


def _default_hours() -> np.ndarray:
    """US-centric activity by UTC hour: trough ~09:00 UTC (4 am ET),
    evening peak ~00:00-02:00 UTC (7-9 pm ET)."""
    hours = np.array([
        1.5, 1.45, 1.3, 1.0, 0.7, 0.5, 0.4, 0.35, 0.3, 0.3, 0.4, 0.55,
        0.75, 0.95, 1.1, 1.2, 1.25, 1.3, 1.3, 1.3, 1.35, 1.4, 1.5, 1.55,
    ])
    return hours


@dataclass(frozen=True)
class DiurnalProfile:
    """A 24-value relative-activity profile over UTC hours."""

    hourly: np.ndarray = field(default_factory=_default_hours)

    def __post_init__(self) -> None:
        if self.hourly.shape != (24,):
            raise ValueError("profile needs exactly 24 hourly values")
        if np.any(self.hourly <= 0):
            raise ValueError("hourly activity must be positive")

    def normalized(self) -> np.ndarray:
        """Probabilities over the 24 hours (sums to 1)."""
        return self.hourly / self.hourly.sum()

    @cached_property
    def _hour_draw(self) -> CategoricalCDF:
        return CategoricalCDF(self.normalized())

    def sample_second_of_day(self, rng: np.random.Generator,
                             size: int | None = None) -> np.ndarray:
        """Draw seconds-of-day distributed per the profile.

        The hour is the draw of ``rng.choice(24, size, p=normalized())``.
        """
        n = size if size is not None else 1
        hours = self._hour_draw.draws(rng, n)
        seconds = hours * SECONDS_PER_HOUR + rng.uniform(
            0, SECONDS_PER_HOUR, size=n)
        return seconds if size is not None else seconds[0]


def apply_diurnal(events: list[tuple[float, str]],
                  rng: np.random.Generator,
                  profile: DiurnalProfile | None = None,
                  keep_first: bool = True) -> list[tuple[float, str]]:
    """Reshape event times-of-day per the profile, preserving days.

    Each event keeps its calendar day but its second-of-day is
    re-drawn from the profile, except (optionally) the cascade's first
    event, whose time anchors the story and the cross-platform lag
    statistics.  The output is re-sorted.
    """
    if not events:
        return events
    profile = profile or DiurnalProfile()
    ordered = sorted(events)
    reshaped: list[tuple[float, str]] = []
    for index, (t, name) in enumerate(ordered):
        if keep_first and index == 0:
            reshaped.append((t, name))
            continue
        day_start = t - (t % SECONDS_PER_DAY)
        second = float(profile.sample_second_of_day(rng))
        reshaped.append((day_start + second, name))
    reshaped.sort()
    return reshaped
