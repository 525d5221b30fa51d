"""Scenario presets end-to-end: fit + serve latency across K.

Runs three registered presets — ``minimal`` (the paper-shaped smoke
world), ``web-centipede`` (the paper, K=8), and ``gab`` (K=4 with a
generic fourth platform) — through the full ``Study(scenario=...)``
path: world → collect → corpus → influence fit, then a live
``StudyService`` answering ``/influence`` and ``/scenarios``.  The
point is that the K-platform generalization costs nothing on the paper
path and scales sanely with K.

``BENCH_SMOKE=1`` shrinks the worlds for a fast CI pass.  All fits use
a short Gibbs run (20 sweeps) so the bench measures the scenario
plumbing, not long chains.
"""

import dataclasses
import http.client
import os
import threading
import time

from repro.api import Study, StudyService
from repro.config import HawkesConfig
from repro.reporting import render_table
from repro.scenarios import get_scenario

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

SCENARIOS = ("minimal", "gab", "web-centipede")

#: World scale per mode: smoke stays under a minute on one core.
SCALE = (dict(n_stories_alternative=150, n_stories_mainstream=450,
              n_twitter_users=250, n_reddit_users=200,
              n_generic_subreddits=30)
         if SMOKE else
         dict(n_stories_alternative=600, n_stories_mainstream=1800,
              n_twitter_users=800, n_reddit_users=600,
              n_generic_subreddits=80))

MAX_URLS = 15 if SMOKE else 60
SERVE_REQUESTS = 50 if SMOKE else 300

BENCH_HAWKES = HawkesConfig(gibbs_iterations=20, gibbs_burn_in=6)


def _scaled_study(name: str) -> Study:
    scenario = get_scenario(name)
    world = dataclasses.replace(scenario.world, **SCALE)
    return Study(scenario=dataclasses.replace(scenario, world=world),
                 hawkes=BENCH_HAWKES, max_urls=MAX_URLS)


def _get(port: int, path: str) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def _serve_seconds(study: Study) -> float:
    """Wall time for SERVE_REQUESTS warm GETs across the endpoints."""
    service = StudyService(study, port=0)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    try:
        assert _get(service.port, "/influence") == 200  # warm the cache
        start = time.perf_counter()
        for i in range(SERVE_REQUESTS):
            path = "/influence" if i % 2 else "/scenarios"
            assert _get(service.port, path) == 200
        return time.perf_counter() - start
    finally:
        service.shutdown()
        service.close()
        thread.join(timeout=5)


def test_bench_scenarios(benchmark, save_result):
    rows = []
    for i, name in enumerate(SCENARIOS):
        study = _scaled_study(name)
        scenario = study.scenario

        def _fit(s=study):
            start = time.perf_counter()
            result = s.influence()
            return result, time.perf_counter() - start

        if i == 0:
            # One scenario goes through the benchmark fixture so the
            # run is visible to pytest-benchmark's own reporting.
            result, fit_s = benchmark.pedantic(_fit, rounds=1,
                                               iterations=1)
        else:
            result, fit_s = _fit()
        assert result.processes == scenario.ecosystem.processes
        n_urls = len(result.fits)
        serve_s = _serve_seconds(study)
        rows.append([name, str(scenario.k), str(n_urls),
                     f"{n_urls / fit_s:.1f}" if fit_s else "-",
                     f"{SERVE_REQUESTS / serve_s:.0f}"])
    table = render_table(
        ["Scenario", "K", "Corpus URLs", "fit URLs/s", "serve req/s"],
        rows, title=f"Scenario presets end-to-end "
                    f"({'smoke' if SMOKE else 'full'} mode, Gibbs "
                    f"{BENCH_HAWKES.gibbs_iterations} sweeps)")
    print()
    print(table)
    save_result("bench_scenarios.txt", table)
