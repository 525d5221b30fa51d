"""Synthetic user populations for Twitter and Reddit.

Figure 3 of the paper shows that ~80% of users on both platforms share
only mainstream news, that 13% of Twitter users share *only* alternative
news (likely bots), and that mixed users span the whole preference
range.  We generate users in those archetypes and sample authors for
each post conditioned on the post's news category, which reproduces the
per-user fraction CDFs by construction rather than by accident.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from ..sampling import WeightedChoice

class UserArchetype(enum.Enum):
    MAINSTREAM_ONLY = "mainstream_only"
    ALTERNATIVE_ONLY = "alternative_only"
    MIXED = "mixed"


@dataclass
class UserProfile:
    """Sampling profile for one synthetic account."""

    name: str
    archetype: UserArchetype
    #: Preference for alternative news within mixed users (0..1).
    alt_preference: float
    #: Relative posting activity (Zipf-like heavy tail).
    activity: float
    is_bot: bool = False


@dataclass
class PopulationShape:
    """Archetype mix; defaults follow Figure 3."""

    mainstream_only: float = 0.80
    alternative_only: float = 0.13
    bot_fraction_of_alt_only: float = 0.85
    #: Beta parameters of mixed users' alternative preference.
    mixed_alpha: float = 0.7
    mixed_beta: float = 0.7

    def __post_init__(self) -> None:
        if self.mainstream_only + self.alternative_only > 1.0:
            raise ValueError("archetype fractions exceed 1")


#: Reddit has far fewer single-category alternative posters (Fig. 3a).
REDDIT_SHAPE = PopulationShape(mainstream_only=0.80, alternative_only=0.035,
                               bot_fraction_of_alt_only=0.2,
                               mixed_alpha=0.55, mixed_beta=0.55)
TWITTER_SHAPE = PopulationShape()


class UserPopulation:
    """A pool of profiles with category-conditioned author sampling."""

    def __init__(self, prefix: str, n_users: int,
                 shape: PopulationShape | None = None,
                 seed: int = 0) -> None:
        if n_users < 3:
            raise ValueError("need at least 3 users for the 3 archetypes")
        self.shape = shape or PopulationShape()
        self._rng = random.Random(seed)
        self.profiles: list[UserProfile] = []
        for i in range(n_users):
            roll = self._rng.random()
            if roll < self.shape.mainstream_only:
                archetype = UserArchetype.MAINSTREAM_ONLY
                pref = 0.0
                bot = False
            elif roll < self.shape.mainstream_only + self.shape.alternative_only:
                archetype = UserArchetype.ALTERNATIVE_ONLY
                pref = 1.0
                bot = self._rng.random() < self.shape.bot_fraction_of_alt_only
            else:
                archetype = UserArchetype.MIXED
                pref = self._rng.betavariate(self.shape.mixed_alpha,
                                             self.shape.mixed_beta)
                bot = False
            activity = self._rng.paretovariate(1.35)
            self.profiles.append(UserProfile(
                name=f"{prefix}{i}",
                archetype=archetype,
                alt_preference=pref,
                activity=activity,
                is_bot=bot,
            ))
        self._index_pools()

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "_authors" not in state:  # pickled before the author index
            self.__dict__.pop("_pool", None)
            self._index_pools()

    def _index_pools(self) -> None:
        """Precompute per-category author pools and their cumulative weights.

        A mainstream post can come from a mainstream-only or a mixed
        user (weighted by activity and 1 - preference); symmetrically
        for alternative posts.
        """
        self._authors: dict[bool, WeightedChoice] = {}
        for alternative in (False, True):
            members: list[UserProfile] = []
            weights: list[float] = []
            for profile in self.profiles:
                if alternative:
                    if profile.archetype == UserArchetype.MAINSTREAM_ONLY:
                        continue
                    affinity = (1.0 if profile.archetype
                                == UserArchetype.ALTERNATIVE_ONLY
                                else profile.alt_preference)
                else:
                    if profile.archetype == UserArchetype.ALTERNATIVE_ONLY:
                        continue
                    affinity = (1.0 if profile.archetype
                                == UserArchetype.MAINSTREAM_ONLY
                                else 1.0 - profile.alt_preference)
                if affinity <= 0:
                    continue
                members.append(profile)
                weights.append(profile.activity * affinity)
            if not members:  # degenerate tiny populations
                members = list(self.profiles)
                weights = [p.activity for p in self.profiles]
            self._authors[alternative] = WeightedChoice(members, weights)

    def sample_author(self, alternative: bool) -> UserProfile:
        """Draw an author for a post of the given category.

        The same draw as ``rng.choices(members, weights=weights)``.
        """
        return self._authors[alternative].draw(self._rng)

    @property
    def bots(self) -> list[UserProfile]:
        return [p for p in self.profiles if p.is_bot]
