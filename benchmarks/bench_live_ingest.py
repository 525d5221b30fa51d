"""Live engine: incremental vs batch scaling.

After N records, applying Δ more is O(Δ) live but O(N) by rescan; the
ratio must grow with N.  Δ is N/50 at every size: one live update costs
about 3-4x one record of the batch rescan, so the live path wins 2x
only once N exceeds about 8Δ, and a fixed Δ would measure the small
smoke stream (~2.4k records) at N/Δ of about 5, where the claim does
not hold.  For ingest throughput (collector streams, bus merge,
aggregators and JSON checkpoints) run the ``live`` workload of
``perfbench/run.py``.

``BENCH_SMOKE=1`` shrinks the world for a fast CI pass.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis import characterization as chz
from repro.analysis import sequences
from repro.api import Study
from repro.collection.store import Dataset
from repro.live import LiveEngine
from repro.news.domains import NewsCategory
from repro.reporting import render_table
from repro.synthesis.world import WorldConfig

ALT = NewsCategory.ALTERNATIVE

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

INGEST_CONFIG = (WorldConfig(seed=7, n_stories_alternative=120,
                             n_stories_mainstream=320,
                             n_twitter_users=150, n_reddit_users=120)
                 if SMOKE else WorldConfig(seed=7))


@pytest.fixture(scope="module")
def live_records():
    dataset = Study(world=INGEST_CONFIG).data.merged()
    return sorted(dataset, key=lambda r: r.created_at)


def _batch_answers(records):
    """Recompute the headline views from scratch (the O(N) path)."""
    dataset = Dataset(records)
    slices = {
        "/pol/": chz.slice_board(dataset.filter(
            lambda r: r.platform == "4chan")),
        "Reddit": chz.slice_six_subreddits(dataset.filter(
            lambda r: r.platform == "reddit")),
        "Twitter": dataset.filter(lambda r: r.platform == "twitter"),
    }
    return (chz.domain_platform_fractions(slices, ALT),
            sequences.first_hop_distribution(slices, ALT))


def _live_answers(engine):
    return (engine.domains.platform_fractions(ALT),
            engine.first_hops.first_hop(ALT))


def test_incremental_vs_batch_scaling(live_records, save_result):
    records = live_records
    n_total = len(records)
    delta = max(20, n_total // 50)
    budget = n_total - delta
    checkpoints = sorted({max(delta, int(budget * f))
                          for f in (0.25, 0.5, 0.75, 1.0)})

    engine = LiveEngine(summary_every=0)
    consumed = 0
    rows = []
    ratios = []
    inc_times = []
    for target in checkpoints:
        while consumed < target:
            engine.process(records[consumed])
            consumed += 1

        start = time.perf_counter()
        for record in records[consumed:consumed + delta]:
            engine.process(record)
        live = _live_answers(engine)
        t_incremental = time.perf_counter() - start
        consumed += delta

        start = time.perf_counter()
        batch = _batch_answers(records[:consumed])
        t_batch = time.perf_counter() - start

        assert live == batch  # same stream -> identical answers
        ratio = t_batch / t_incremental if t_incremental else float("inf")
        ratios.append(ratio)
        inc_times.append(t_incremental)
        rows.append([f"{consumed}", f"{delta}",
                     f"{1000 * t_incremental:.2f}",
                     f"{1000 * t_batch:.2f}", f"{ratio:.1f}x"])

    text = render_table(
        ["N records", "Δ", "incremental (ms)", "batch recompute (ms)",
         "speedup"],
        rows, title="Incremental update (O(Δ)) vs batch recompute (O(N))")
    save_result("live_ingest_scaling.txt", text)

    # Batch cost grows with N; the incremental update does not, so at
    # the full corpus the live path must win clearly.
    assert ratios[-1] > 2.0
    # The incremental update's cost is driven by Δ, not N: it must not
    # blow up between the smallest and largest prefix (generous 10x
    # bound absorbs timer noise).
    assert inc_times[-1] < 10 * max(inc_times[0], 1e-4)
