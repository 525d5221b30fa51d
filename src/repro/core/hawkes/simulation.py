"""Forward sampling of the discrete Hawkes model.

Two samplers are provided:

* :func:`simulate_branching` uses the exact cluster (branching)
  representation — background events arrive as a homogeneous Poisson
  process and every event independently spawns Poisson-distributed
  children at lags drawn from the impulse PMF.  This is the production
  sampler: cost scales with the number of events, not with ``T``.
* :func:`simulate_stepwise` walks the bins one at a time, drawing
  ``Poisson(lambda[t, k])`` counts from the accumulated rate.  It is
  O(T·K·D) and exists as an independent cross-check of the branching
  construction (the two agree in distribution; tested on moments).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ...sampling import CategoricalCDF
from ..events import DiscreteEvents
from .model import HawkesParams

#: Guard against runaway cascades from unstable parameter settings.
_MAX_EVENTS = 5_000_000


class LagSampler:
    """Child-lag draws from the rows of one ``(K, K, D)`` impulse.

    ``draws(rng, k, dst, n)`` is ``rng.choice(np.arange(1, D + 1),
    size=n, p=impulse[k, dst])``, draw for draw.  Each row's CDF is
    checked and accumulated on the row's first draw, the draw on which
    ``choice`` would first check it, so a bad row raises the same
    ``ValueError`` at the same point; later draws reuse it.  Share one
    sampler across simulations of the same impulse.
    """

    def __init__(self, impulse: np.ndarray) -> None:
        self.impulse = impulse
        self._rows: dict[tuple[int, int], CategoricalCDF] = {}

    def draws(self, rng: np.random.Generator, k: int, dst: int,
              n: int) -> np.ndarray:
        row = self._rows.get((k, dst))
        if row is None:
            row = self._rows[(k, dst)] = CategoricalCDF(self.impulse[k, dst])
        return row.draws(rng, n) + 1


def simulate_branching(params: HawkesParams, n_bins: int,
                       rng: np.random.Generator | None = None,
                       lags: LagSampler | None = None,
                       ) -> DiscreteEvents:
    """Draw one realization of the model over ``n_bins`` bins.

    ``lags`` is a :class:`LagSampler` of ``params.impulse`` to reuse
    across calls; by default each call builds its own.  Raises
    ``RuntimeError`` if the cascade exceeds an internal event budget,
    which only happens for super-critical ``W`` (spectral radius well
    above 1).
    """
    rng = rng or np.random.default_rng()
    if lags is None:
        lags = LagSampler(params.impulse)
    elif lags.impulse is not params.impulse:
        raise ValueError("lags must sample params.impulse")
    k_procs = params.n_processes
    weights = params.weights.tolist()
    queue: deque[tuple[int, int]] = deque()

    # Immigrant (background) events: Poisson(lambda0) per bin, drawn in
    # bulk as a total count placed uniformly over bins.
    for k in range(k_procs):
        total = rng.poisson(params.background[k] * n_bins)
        if total:
            for t in rng.integers(0, n_bins, size=total):
                queue.append((int(t), k))

    all_events: list[tuple[int, int]] = []
    produced = 0
    while queue:
        t, k = queue.popleft()
        all_events.append((t, k))
        produced += 1
        if produced > _MAX_EVENTS:
            raise RuntimeError(
                "event budget exceeded; weight matrix is likely unstable "
                f"(spectral radius {params.spectral_radius():.3f})")
        for dst, weight in enumerate(weights[k]):
            n_children = rng.poisson(weight)
            if not n_children:
                continue
            for lag in lags.draws(rng, k, dst, n_children).tolist():
                child_t = t + lag
                if child_t < n_bins:
                    queue.append((child_t, dst))

    return DiscreteEvents.from_pairs(all_events, n_bins=n_bins,
                                     n_processes=k_procs)


def simulate_stepwise(params: HawkesParams, n_bins: int,
                      rng: np.random.Generator | None = None,
                      ) -> DiscreteEvents:
    """Bin-by-bin sampler; O(T·K·D) and intended for validation only."""
    rng = rng or np.random.default_rng()
    k_procs = params.n_processes
    max_lag = params.max_lag
    kernel = params.branching_kernel()  # (K, K, D)
    counts = np.zeros((n_bins, k_procs), dtype=np.int64)
    for t in range(n_bins):
        rate = params.background.copy()
        lo = max(0, t - max_lag)
        for t_past in range(lo, t):
            past = counts[t_past]
            if not past.any():
                continue
            lag = t - t_past
            rate += past @ kernel[:, :, lag - 1]
        counts[t] = rng.poisson(rate)
    return DiscreteEvents.from_dense(counts)


def expected_total_events(params: HawkesParams, n_bins: int) -> np.ndarray:
    """Expected event totals per process over ``n_bins`` bins.

    Ignoring edge truncation, totals solve ``N = lambda0 * T + W^T N``,
    i.e. ``N = (I - W^T)^{-1} lambda0 T``.  Useful for sizing simulations
    and as an analytic check on the samplers.
    """
    identity = np.eye(params.n_processes)
    return np.linalg.solve(identity - params.weights.T,
                           params.background * n_bins)
