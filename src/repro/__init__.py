"""repro — a reproduction of "The Web Centipede" (Zannettou et al., IMC 2017).

A complete measurement stack for cross-platform news influence:
platform simulators (Twitter, Reddit, 4chan), a paper-calibrated
synthetic world generator, collection infrastructure (streaming sample,
crawlers with outage gaps, re-crawls), the Section 3-4 characterization
and temporal analyses, and the Section 5 discrete-time Hawkes influence
estimator with Gibbs-sampling inference.

The stable public surface is the :class:`Study` session
(:mod:`repro.api`): one configuration object exposing every pipeline
product as a cached, dependency-tracked artifact, servable over HTTP.

Quickstart::

    from repro import Study

    study = Study(seed=7)
    print(study.table(4).render())   # Table 4, computed once, cached
    result = study.influence()       # Section-5 per-URL Hawkes fits

    study = Study(scenario="gab")    # a K=4 preset (repro.scenarios)
    study.influence()                # 4x4 influence matrices
"""

from importlib import metadata as _metadata

try:
    __version__ = _metadata.version("repro-web-centipede")
except _metadata.PackageNotFoundError:  # running from a source checkout
    __version__ = "2.0.0"

from . import (
    analysis,
    api,
    collection,
    config,
    core,
    live,
    news,
    obs,
    parallel,
    platforms,
    scenarios,
    synthesis,
)
from .api import ArtifactStore, Study, StudyService, TableArtifact
from .scenarios import Scenario, get_scenario, scenario_names
from .config import HawkesConfig
from .core import InfluenceResult, UrlCascade, fit_corpus
from .core.influence import CorpusSummary, UrlFit, WeightAggregate
from .news.domains import NewsCategory
from .pipeline import CollectedData, collect, influence_cascades
from .synthesis.world import World, WorldConfig

__all__ = [
    # subpackages
    "analysis",
    "api",
    "collection",
    "config",
    "core",
    "live",
    "news",
    "obs",
    "parallel",
    "platforms",
    "scenarios",
    "synthesis",
    # the session surface
    "ArtifactStore",
    "Scenario",
    "Study",
    "StudyService",
    "TableArtifact",
    "get_scenario",
    "scenario_names",
    # key dataclasses
    "CollectedData",
    "CorpusSummary",
    "HawkesConfig",
    "InfluenceResult",
    "NewsCategory",
    "UrlCascade",
    "UrlFit",
    "WeightAggregate",
    "World",
    "WorldConfig",
    # pure compute functions the Study stages call
    "collect",
    "fit_corpus",
    "influence_cascades",
    # metadata
    "__version__",
]
