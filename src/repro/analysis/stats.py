"""Statistical utilities: empirical CDFs and two-sample KS tests.

Every CDF figure in the paper is an ECDF of some per-URL or per-user
quantity; every significance claim is a two-sample Kolmogorov-Smirnov
test.  :class:`Ecdf` is the common currency handed to the reporting
layer (it can evaluate, invert, and resample itself onto a grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KsResult:
    """Two-sample KS outcome."""

    statistic: float
    pvalue: float

    def significant(self, alpha: float = 0.01) -> bool:
        return self.pvalue < alpha


def ks_two_sample(a, b) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test (thin scipy wrapper)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not len(a) or not len(b):
        raise ValueError("both samples must be non-empty")
    from scipy import stats
    result = stats.ks_2samp(a, b)
    return KsResult(statistic=float(result.statistic),
                    pvalue=float(result.pvalue))


class Ecdf:
    """Empirical CDF of a one-dimensional sample."""

    def __init__(self, sample) -> None:
        data = np.asarray(sample, dtype=np.float64)
        if data.ndim != 1:
            raise ValueError("sample must be one-dimensional")
        if not len(data):
            raise ValueError("sample must be non-empty")
        self.values = np.sort(data)
        self.n = len(self.values)

    def __call__(self, x) -> np.ndarray | float:
        """P(X <= x), evaluated element-wise."""
        x_arr = np.asarray(x, dtype=np.float64)
        result = np.searchsorted(self.values, x_arr, side="right") / self.n
        if np.isscalar(x) or x_arr.ndim == 0:
            return float(result)
        return result

    def quantile(self, q) -> np.ndarray | float:
        """Inverse CDF; ``q`` in [0, 1]."""
        q_arr = np.asarray(q, dtype=np.float64)
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise ValueError("quantiles must be within [0, 1]")
        idx = np.clip(np.ceil(q_arr * self.n).astype(int) - 1, 0, self.n - 1)
        result = self.values[idx]
        if np.isscalar(q) or q_arr.ndim == 0:
            return float(result)
        return result

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def on_log_grid(self, n_points: int = 64,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Resample onto a log-spaced grid (matches the paper's axes)."""
        positive = self.values[self.values > 0]
        if not len(positive):
            raise ValueError("log grid needs positive values")
        lo, hi = positive.min(), positive.max()
        if lo == hi:
            grid = np.array([lo])
        else:
            grid = np.geomspace(lo, hi, n_points)
        return grid, np.asarray(self(grid))


def summarize(sample) -> dict[str, float]:
    """Mean/std/median/min/max summary used by several reports."""
    data = np.asarray(sample, dtype=np.float64)
    if not len(data):
        return {"n": 0, "mean": 0.0, "std": 0.0, "median": 0.0,
                "min": 0.0, "max": 0.0}
    return {
        "n": int(len(data)),
        "mean": float(np.mean(data)),
        "std": float(np.std(data)),
        "median": float(np.median(data)),
        "min": float(np.min(data)),
        "max": float(np.max(data)),
    }
