"""Shared benchmark fixtures: one medium-world ``Study``, computed once.

``bench_claims.py`` asserts every paper claim on ``bench_study`` and
writes each table and figure to ``results/``, so EXPERIMENTS.md can
quote paper-reported vs. measured values side by side; the ablation
and diagnostics benches reuse its collected data and corpus.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import Study
from repro.config import HawkesConfig
from repro.synthesis.world import WorldConfig

from _helpers import RESULTS_DIR  # noqa: E402 (pytest adds benchmarks/ to sys.path)

#: Medium-scale world: ~1/25 of the paper's corpus, minutes to analyze.
BENCH_CONFIG = WorldConfig(
    seed=42,
    n_stories_alternative=1500,
    n_stories_mainstream=4500,
    n_twitter_users=1500,
    n_reddit_users=1200,
    n_generic_subreddits=150,
)

#: Reduced sweep count keeps the full-corpus fit to a couple of minutes.
BENCH_HAWKES = HawkesConfig(gibbs_iterations=40, gibbs_burn_in=15)


@pytest.fixture(scope="session")
def bench_study():
    return Study(world=BENCH_CONFIG, hawkes=BENCH_HAWKES, fit_seed=7,
                 trim_fraction=BENCH_HAWKES.gap_trim_fraction)


@pytest.fixture(scope="session")
def bench_data(bench_study):
    return bench_study.data


@pytest.fixture(scope="session")
def bench_corpus(bench_study):
    return bench_study.corpus


@pytest.fixture(scope="session")
def save_result():
    """Writer for rendered tables/figure series under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> Path:
        path = RESULTS_DIR / name
        path.write_text(text if text.endswith("\n") else text + "\n",
                        encoding="utf-8")
        return path

    return _save
