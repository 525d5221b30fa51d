#!/usr/bin/env python3
"""Hawkes playground: simulate, fit, and validate the Section-5 model.

A self-contained tour of the statistical core, no world generation
involved: build a known multivariate Hawkes process, simulate it, and
check that the Gibbs sampler recovers the generating parameters — the
validation the paper itself could not run on real data.

Run:
    python examples/hawkes_playground.py
"""

import time

import numpy as np

from repro.core.hawkes import (
    HawkesParams,
    fit_gibbs,
    simulate_branching,
)
from repro.core.hawkes.model import discrete_log_likelihood
from repro.core.hawkes.simulation import expected_total_events
from repro.reporting import render_table

PROCESSES = ("The_Donald", "/pol/", "Twitter")


def build_truth() -> HawkesParams:
    max_lag = 120
    pmf = np.exp(-np.arange(1, max_lag + 1) / 20.0)
    pmf /= pmf.sum()
    weights = np.array([
        [0.25, 0.15, 0.20],   # The_Donald excites /pol/ and Twitter
        [0.10, 0.30, 0.12],
        [0.05, 0.08, 0.45],   # Twitter strongly self-excites (retweets)
    ])
    return HawkesParams(
        background=np.array([0.003, 0.004, 0.008]),
        weights=weights,
        impulse=np.tile(pmf, (3, 3, 1)),
    )


def main() -> None:
    truth = build_truth()
    rng = np.random.default_rng(1)
    n_bins = 60_000  # ~42 days of minutes

    print(f"spectral radius of W: {truth.spectral_radius():.3f} "
          "(sub-critical, cascades die out)")
    events = simulate_branching(truth, n_bins, rng)
    expected = expected_total_events(truth, n_bins)
    print(render_table(
        ["Process", "Simulated", "Analytic E[N]"],
        [[name, int(events.events_per_process()[i]), f"{expected[i]:.0f}"]
         for i, name in enumerate(PROCESSES)],
        title="Simulation vs branching expectation"))
    print()

    started = time.time()
    gibbs = fit_gibbs(events, truth.max_lag, n_iterations=80, burn_in=30,
                      rng=rng)
    gibbs_seconds = time.time() - started

    rows = []
    for i, src in enumerate(PROCESSES):
        for j, dst in enumerate(PROCESSES):
            rows.append([
                f"{src} -> {dst}",
                f"{truth.weights[i, j]:.3f}",
                f"{gibbs.weights[i, j]:.3f}",
            ])
    print(render_table(["Edge", "truth", "Gibbs"], rows,
                       title="Weight recovery"))
    print()
    print(render_table(
        ["Process", "truth λ0", "Gibbs λ0"],
        [[name, f"{truth.background[i]:.5f}",
          f"{gibbs.background[i]:.5f}"]
         for i, name in enumerate(PROCESSES)],
        title="Background-rate recovery"))
    print()
    print(f"log-likelihoods: truth {discrete_log_likelihood(truth, events):.1f}"
          f"  Gibbs {gibbs.log_likelihood:.1f} ({gibbs_seconds:.1f}s)")

    # Posterior uncertainty from the Gibbs samples.
    spread = gibbs.weight_samples.std(axis=0)
    print(f"posterior std of W(Twitter->Twitter): "
          f"{spread[2, 2]:.4f} over {len(gibbs.weight_samples)} samples")

    err_gibbs = np.abs(gibbs.weights - truth.weights).max()
    print(f"max |W_hat - W|: Gibbs {err_gibbs:.3f}")


if __name__ == "__main__":
    main()
