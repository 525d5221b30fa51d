"""Study configuration: the paper's window, gaps, and community registry.

The constants here mirror Section 2.2 of the paper: the data covers
June 30 2016 through February 28 2017, with crawler-failure gaps on
Twitter and 4chan.  The eight Hawkes processes of Section 5 are Twitter,
4chan's /pol/, and the six selected subreddits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timeutil import Interval, utc

# ---------------------------------------------------------------------------
# Study window (Section 2.2)
# ---------------------------------------------------------------------------

STUDY_START = utc(2016, 6, 30)
STUDY_END = utc(2017, 2, 28, 23, 59, 59) + 1
STUDY_WINDOW = Interval(STUDY_START, STUDY_END)

#: Twitter collection-infrastructure failures (Section 2.2).
TWITTER_GAPS: tuple[Interval, ...] = (
    Interval(utc(2016, 10, 28), utc(2016, 11, 3)),   # Oct 28 - Nov 2
    Interval(utc(2016, 11, 5), utc(2016, 11, 17)),   # Nov 5 - Nov 16
    Interval(utc(2016, 11, 22), utc(2017, 1, 14)),   # Nov 22 - Jan 13
    Interval(utc(2017, 2, 24), STUDY_END),           # Feb 24 - Feb 28
)

#: 4chan crawler failures (Section 2.2).
FOURCHAN_GAPS: tuple[Interval, ...] = (
    Interval(utc(2016, 10, 15), utc(2016, 10, 17)),  # Oct 15 - 16
    Interval(utc(2016, 12, 16), utc(2016, 12, 26)),  # Dec 16 - 25
    Interval(utc(2017, 1, 10), utc(2017, 1, 14)),    # Jan 10 - 13
)

# ---------------------------------------------------------------------------
# Communities (the Hawkes processes of Section 5, plus baselines)
# ---------------------------------------------------------------------------
# The community literals now live on the platform registry
# (:mod:`repro.platforms.registry`), where ecosystems beyond the paper's
# fixed triple are declared.  The names below are deprecated aliases kept
# for the wide legacy surface; new code should read them from the registry
# or from an :class:`~repro.platforms.registry.Ecosystem`.

from .platforms.registry import (  # noqa: E402  (re-exported aliases)
    FOURCHAN_BASELINE_BOARDS,
    FOURCHAN_BOARDS,
    HAWKES_PROCESSES,
    PLATFORM_CODES,
    PLATFORM_POL,
    PLATFORM_REDDIT,
    PLATFORM_TWITTER,
    SELECTED_SUBREDDITS,
    SEQUENCE_PLATFORMS,
)

__all_registry_aliases__ = (
    "SELECTED_SUBREDDITS", "FOURCHAN_BOARDS", "FOURCHAN_BASELINE_BOARDS",
    "HAWKES_PROCESSES", "PLATFORM_TWITTER", "PLATFORM_REDDIT",
    "PLATFORM_POL", "SEQUENCE_PLATFORMS", "PLATFORM_CODES",
)


@dataclass(frozen=True)
class HawkesConfig:
    """Parameters of the Section 5 influence-estimation experiment."""

    #: Time-bin width, seconds (paper: 1 minute).
    delta_t: int = 60
    #: Maximum lag an event can excite, in bins (paper: 720 min = 12 h).
    max_lag_bins: int = 720
    #: Gibbs sweeps and burn-in used when fitting each URL.
    gibbs_iterations: int = 120
    gibbs_burn_in: int = 40
    #: Fraction of gap-overlapping URLs removed, shortest-duration first
    #: (paper: 10%).
    gap_trim_fraction: float = 0.10
    #: Gamma prior hyper-parameters on background rates and weights.
    background_shape: float = 1.0
    background_rate: float = 100.0
    weight_shape: float = 1.0
    weight_rate: float = 18.0
    #: Dirichlet concentration of the lag PMF prior.
    impulse_concentration: float = 1.0
