"""Platform registry: declarative platform specs and K-platform ecosystems.

The paper studies one fixed ecosystem — Twitter, Reddit (six selected
subreddits), and 4chan's /pol/ — and the original codebase hardwired
that triple everywhere.  This module is the generalization point: a
:class:`PlatformSpec` declares one platform (its collector key, its
influence process, its sequence-table code, its synthesis knobs for
generic platforms), and an :class:`Ecosystem` bundles K platforms into
the routing every layer shares:

* ``processes`` — the K axes of the Hawkes influence matrices
  (Figures 10-11, Table 11);
* ``process_of(community)`` — community name → influence process,
  or ``None`` for communities outside the model (Section 5.2);
* ``slice_of(record)`` — record → coarse platform slice (Tables 8-10);
* ``require_all`` / ``require_any`` — the corpus selection rule
  generalizing "on Twitter AND /pol/ AND ≥ 1 subreddit".

:data:`PAPER_ECOSYSTEM` reproduces the paper's fixed triple exactly;
scenarios (:mod:`repro.scenarios`) build variants via
:func:`make_ecosystem`.  This module is import-cycle safe: it imports
nothing from :mod:`repro.config` (config derives its legacy constants
*from* here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Paper community literals (Sections 3 and 5)
# ---------------------------------------------------------------------------

#: The six selected subreddits (Section 3).
SELECTED_SUBREDDITS: tuple[str, ...] = (
    "The_Donald",
    "worldnews",
    "politics",
    "news",
    "conspiracy",
    "AskReddit",
)

#: 4chan boards studied; /pol/ is primary, the rest are baselines.
FOURCHAN_BOARDS: tuple[str, ...] = ("pol", "sp", "int", "sci")
FOURCHAN_BASELINE_BOARDS: tuple[str, ...] = ("sp", "int", "sci")

#: Canonical ordering of the 8 Hawkes processes, matching Fig. 10/11 axes.
HAWKES_PROCESSES: tuple[str, ...] = SELECTED_SUBREDDITS + ("/pol/", "Twitter")

#: Display names for the coarse platform split used in Tables 8-10.
PLATFORM_TWITTER = "Twitter"
PLATFORM_REDDIT = "Reddit"       # six selected subreddits
PLATFORM_POL = "/pol/"
SEQUENCE_PLATFORMS: tuple[str, ...] = (PLATFORM_POL, PLATFORM_REDDIT,
                                       PLATFORM_TWITTER)
#: Single-letter codes used by the paper's sequence tables.
PLATFORM_CODES = {PLATFORM_POL: "4", PLATFORM_REDDIT: "R",
                  PLATFORM_TWITTER: "T"}


# ---------------------------------------------------------------------------
# Platform specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlatformSpec:
    """One platform of an ecosystem, declaratively.

    ``kind`` selects the simulator/collector pair: the three built-in
    kinds (``twitter`` / ``reddit`` / ``fourchan``) are the paper's
    platforms with their full mechanics; ``generic`` is a minimal forum
    (:class:`repro.platforms.generic.GenericPlatform`) whose synthesis
    knobs live on the spec itself, so a scenario can add a K-th
    platform (Gab, Telegram, ...) without writing a simulator.
    """

    #: Collector/stream key; also ``DatasetRecord.platform`` for records.
    key: str
    #: Human-readable name used in tables and reports.
    display: str
    #: ``twitter`` | ``reddit`` | ``fourchan`` | ``generic``.
    kind: str
    #: Name of this platform's influence process / sequence slice.
    process: str
    #: Single-letter code for the sequence tables (Tables 9-10).
    code: str
    #: Community names whose events route to this platform.
    communities: tuple[str, ...] = ()
    # -- generic-platform synthesis knobs (ignored for built-in kinds) --
    #: Ground-truth background rates, events/minute (Table 11 scale).
    background_alternative: float = 0.0008
    background_mainstream: float = 0.0015
    #: Self-excitation weight and generic cross-couplings appended to
    #: the ground-truth weight matrix (:func:`extend_ground_truth`).
    self_excitation: float = 0.08
    coupling: float = 0.03
    incoming_weight: float = 0.04
    #: Ambient (non-news) posts per news post (Table 1 style ratio).
    ambient_ratio: float = 600.0
    #: Synthetic author pool size.
    n_users: int = 400


TWITTER_SPEC = PlatformSpec(
    key="twitter", display="Twitter", kind="twitter",
    process=PLATFORM_TWITTER, code="T", communities=("Twitter",))
REDDIT_SPEC = PlatformSpec(
    key="reddit", display="Reddit", kind="reddit",
    process=PLATFORM_REDDIT, code="R", communities=SELECTED_SUBREDDITS)
FOURCHAN_SPEC = PlatformSpec(
    key="4chan", display="4chan", kind="fourchan",
    process=PLATFORM_POL, code="4", communities=("/pol/",))

#: The paper's fixed platform triple, in sequence-table order.
BUILTIN_SPECS: tuple[PlatformSpec, ...] = (FOURCHAN_SPEC, REDDIT_SPEC,
                                           TWITTER_SPEC)


# ---------------------------------------------------------------------------
# Ecosystems
# ---------------------------------------------------------------------------

@dataclass
class Ecosystem:
    """K platforms plus the routing every analysis layer shares."""

    name: str
    #: All platforms, built-ins first, then generic extras.
    platforms: tuple[PlatformSpec, ...]
    #: The K axes of the influence matrices, in canonical order.
    processes: tuple[str, ...]
    #: Community name -> influence process (communities absent from the
    #: map are outside the model, Section 5.2).
    community_to_process: dict[str, str]
    #: The subreddits routed to the Reddit slice.
    subreddits: tuple[str, ...] = SELECTED_SUBREDDITS
    #: Coarse platform slices of Tables 8-10, in table order.
    slices: tuple[str, ...] = SEQUENCE_PLATFORMS
    #: Slice -> single-letter sequence-table code.
    codes: dict[str, str] = field(default_factory=lambda: dict(PLATFORM_CODES))
    #: Corpus selection rule: a URL qualifies with >= 1 event on every
    #: ``require_all`` process and >= 1 event on any ``require_any``
    #: process (empty ``require_any`` disables that clause).
    require_all: tuple[str, ...] = (PLATFORM_TWITTER, PLATFORM_POL)
    require_any: tuple[str, ...] = SELECTED_SUBREDDITS

    def __post_init__(self) -> None:
        self._subreddit_set = frozenset(self.subreddits)
        #: record.platform -> slice, for generic extras.
        self._extra_slices = {spec.key: spec.process
                              for spec in self.extras}

    @property
    def extras(self) -> tuple[PlatformSpec, ...]:
        """The generic platforms beyond the paper's built-in triple."""
        return tuple(spec for spec in self.platforms
                     if spec.kind == "generic")

    def process_of(self, community: str) -> str | None:
        """Influence process of a community, or ``None`` if unmodeled."""
        return self.community_to_process.get(community)

    def slice_of(self, record) -> str | None:
        """Coarse-platform slice of a dataset record, or ``None``.

        Reproduces :func:`repro.analysis.characterization.sequence_slice_of`
        exactly for the paper's platforms, and routes generic extras by
        their collector key.
        """
        if record.platform == "twitter":
            return PLATFORM_TWITTER
        if record.platform == "reddit":
            return (PLATFORM_REDDIT
                    if record.community in self._subreddit_set else None)
        if record.platform == "4chan":
            return (PLATFORM_POL
                    if record.community == PLATFORM_POL else None)
        return self._extra_slices.get(record.platform)


def make_ecosystem(name: str, *,
                   extras: tuple[PlatformSpec, ...] = (),
                   merge_subreddits: bool = False,
                   require_all: tuple[str, ...] | None = None,
                   require_any: tuple[str, ...] | None = None,
                   subreddits: tuple[str, ...] = SELECTED_SUBREDDITS,
                   ) -> Ecosystem:
    """Build an ecosystem over the built-in triple plus generic extras.

    ``merge_subreddits=False`` keeps the paper's process axes (each of
    the six subreddits is its own process, K = 8 + extras);
    ``merge_subreddits=True`` collapses them into one platform-level
    ``Reddit`` process (K = 3 + extras), which is the natural axis set
    when comparing whole platforms (e.g. the ``gab`` scenario's 4x4
    matrix).
    """
    extra_processes = tuple(spec.process for spec in extras)
    if merge_subreddits:
        processes = (PLATFORM_REDDIT, PLATFORM_POL,
                     PLATFORM_TWITTER) + extra_processes
        mapping = {sub: PLATFORM_REDDIT for sub in subreddits}
        mapping[PLATFORM_POL] = PLATFORM_POL
        mapping[PLATFORM_TWITTER] = PLATFORM_TWITTER
        default_any = (PLATFORM_REDDIT,) + extra_processes
    else:
        processes = tuple(subreddits) + (PLATFORM_POL,
                                         PLATFORM_TWITTER) + extra_processes
        mapping = {p: p for p in processes}
        default_any = tuple(subreddits)
    for spec in extras:
        for community in spec.communities or (spec.process,):
            mapping[community] = spec.process
    codes = dict(PLATFORM_CODES)
    codes.update({spec.process: spec.code for spec in extras})
    return Ecosystem(
        name=name,
        platforms=BUILTIN_SPECS + tuple(extras),
        processes=processes,
        community_to_process=mapping,
        subreddits=tuple(subreddits),
        slices=SEQUENCE_PLATFORMS + tuple(spec.process for spec in extras),
        codes=codes,
        require_all=(require_all if require_all is not None
                     else (PLATFORM_TWITTER, PLATFORM_POL)),
        require_any=(require_any if require_any is not None
                     else default_any),
    )


#: The paper's ecosystem: K = 8 processes over the fixed triple, with
#: the Section 5.2 selection rule.  It is the default ecosystem of
#: ``Study``, ``influence_cascades``, ``LiveEngine`` and the refitter.
PAPER_ECOSYSTEM = make_ecosystem("paper")
