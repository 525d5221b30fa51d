"""Shared fixtures: a small deterministic world and its collected data.

World generation and collection are the expensive steps, so they are
session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import Study, StudyService
from repro.config import HawkesConfig
from repro.news.domains import default_registry
from repro.pipeline import CollectedData, collect, influence_cascades
from repro.synthesis.world import WorldConfig, build_world


SMALL_CONFIG = WorldConfig(
    seed=11,
    n_stories_alternative=220,
    n_stories_mainstream=650,
    n_twitter_users=250,
    n_reddit_users=200,
    n_generic_subreddits=30,
)


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def small_world():
    return build_world(SMALL_CONFIG)


@pytest.fixture(scope="session")
def collected(small_world) -> CollectedData:
    return collect(small_world)


@pytest.fixture(scope="session")
def cascades(collected):
    return influence_cascades(collected)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def fresh_service(collected):
    """A running service of its own, for tests that break or drain it."""
    study = Study.from_data(
        collected, hawkes=HawkesConfig(gibbs_iterations=12, gibbs_burn_in=4),
        fit_seed=0, max_urls=6)
    service = StudyService(study, port=0)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    yield service
    try:
        service.shutdown()
        service.close()
    except OSError:
        pass
    thread.join(timeout=5)
