"""The built-in scenario presets.

``web-centipede`` is the paper itself and is pinned bit-identical to
the bare ``Study()`` defaults (a golden test enforces this); the other
presets are the ecosystem variations the paper's framing invites —
a Gab-style fourth platform, the election week at higher zoom, and a
bot-heavy Twitter — plus a ``minimal`` smoke preset sized for CI.
"""

from __future__ import annotations

from ..config import HawkesConfig
from ..platforms.registry import PAPER_ECOSYSTEM, PlatformSpec, make_ecosystem
from ..synthesis.users import PopulationShape
from ..synthesis.world import WorldConfig
from .registry import Scenario, register_scenario

#: Quick-fit Hawkes settings for the non-paper presets: a short Gibbs
#: run (30 sweeps, 10 burn-in), same binning/priors as the paper config.
_FAST_HAWKES = HawkesConfig(gibbs_iterations=30, gibbs_burn_in=10)

#: Gab as a K-th platform: an alternative-leaning generic forum that
#: couples a bit more strongly into the ecosystem than the aggregate
#: extras do (its Reddit-refugee dynamics in the follow-up literature).
GAB_SPEC = PlatformSpec(
    key="gab", display="Gab", kind="generic",
    process="Gab", code="G", communities=("Gab",),
    background_alternative=0.0012,
    background_mainstream=0.0006,
    self_excitation=0.09,
    coupling=0.035,
    incoming_weight=0.045,
    ambient_ratio=380.0,
    n_users=500,
)

MINIMAL = register_scenario(Scenario(
    name="minimal",
    version=2,
    title="Minimal smoke world",
    description=("Tiny paper-shaped world sized for CI smokes and "
                 "benchmarks: same triple, same selection rule, short "
                 "Gibbs fits."),
    world=WorldConfig(seed=11, n_stories_alternative=220,
                      n_stories_mainstream=650, n_twitter_users=250,
                      n_reddit_users=200, n_generic_subreddits=30),
    ecosystem=PAPER_ECOSYSTEM,
    hawkes=_FAST_HAWKES,
))

WEB_CENTIPEDE = register_scenario(Scenario(
    name="web-centipede",
    version=1,
    title="The Web Centipede (IMC 2017)",
    description=("The paper's study: Twitter, six subreddits, and /pol/ "
                 "over Jun 2016 - Feb 2017, Gibbs-fitted 8-process "
                 "Hawkes corpus.  Bit-identical to Study() defaults."),
    world=WorldConfig(),
    ecosystem=PAPER_ECOSYSTEM,
    hawkes=HawkesConfig(),
))

GAB = register_scenario(Scenario(
    name="gab",
    version=2,
    title="Gab joins the ecosystem (K=4)",
    description=("The paper's triple plus a Gab-style generic platform; "
                 "subreddits merge into one Reddit process, so the "
                 "influence matrix is 4x4 (Reddit, /pol/, Twitter, Gab)."),
    world=WorldConfig(seed=23, n_stories_alternative=1200,
                      n_stories_mainstream=3600, n_twitter_users=1500,
                      n_reddit_users=1200, n_generic_subreddits=120,
                      extra_platforms=(GAB_SPEC,)),
    ecosystem=make_ecosystem("gab", extras=(GAB_SPEC,),
                             merge_subreddits=True),
    hawkes=_FAST_HAWKES,
))

ELECTION_WEEK = register_scenario(Scenario(
    name="election-week",
    version=2,
    title="US election week zoom",
    description=("The paper's ecosystem seeded on the Nov 2016 election "
                 "week (the example study's configuration), short Gibbs "
                 "fits."),
    world=WorldConfig(seed=1108, n_stories_alternative=800,
                      n_stories_mainstream=2400, n_twitter_users=1000,
                      n_reddit_users=800),
    ecosystem=PAPER_ECOSYSTEM,
    hawkes=_FAST_HAWKES,
))

BOT_AMPLIFICATION = register_scenario(Scenario(
    name="bot-amplification",
    version=2,
    title="Bot-amplified alternative news",
    description=("The paper's ecosystem with a bot-heavy Twitter "
                 "population (more alternative-only authors, almost all "
                 "bots), for counterfactual bot-filtering studies."),
    world=WorldConfig(seed=404, n_stories_alternative=700,
                      n_stories_mainstream=2100, n_twitter_users=1200,
                      n_reddit_users=800,
                      twitter_shape=PopulationShape(
                          mainstream_only=0.70,
                          alternative_only=0.21,
                          bot_fraction_of_alt_only=0.95)),
    ecosystem=PAPER_ECOSYSTEM,
    hawkes=_FAST_HAWKES,
))
