"""Frozen per-URL candidate-parent structure: reference code for tests.

One cascade's candidate arrays, built the way the per-URL fitters
built them before every fit moved to the packed
:class:`repro.core.hawkes.batched.BatchedParentStructure`.  The frozen
per-URL Gibbs sweep in ``gibbs_reference.py`` runs on it, and the kernel
tests check the packed structure against it cascade by cascade.  It
stays here unchanged as reference code; it is not an optimization
target.
"""

from __future__ import annotations

import numpy as np

from repro.core.events import DiscreteEvents
from repro.core.hawkes.basis import LagBasis
from repro.core.hawkes.kernels import BucketKernels, segment_ranges


class ParentStructure(BucketKernels):
    """Flat candidate-parent arrays for each event entry.

    For entry ``m`` (bin ``t``, process ``k``, count ``c``) the
    candidate parents are every earlier entry within ``max_lag`` bins.
    Candidates of all entries are stored concatenated; segment ``m``
    occupies ``flat_*[offsets[m]:offsets[m + 1]]``.
    """

    def __init__(self, events: DiscreteEvents, basis: LagBasis) -> None:
        self.events = events
        self.basis = basis
        ev_bins = events.bins
        lo = np.searchsorted(ev_bins, ev_bins - basis.max_lag, side="left")
        hi = np.searchsorted(ev_bins, ev_bins, side="left")
        flat_idx, sizes, offsets = segment_ranges(lo, hi)
        self.sizes = sizes
        self.offsets = offsets
        self.flat_src = events.processes[flat_idx].astype(np.int64)
        self.flat_lag = (np.repeat(ev_bins, sizes)
                         - ev_bins[flat_idx]).astype(np.int64)
        self.flat_cnt = events.counts[flat_idx].astype(np.float64)
        self.flat_bucket = basis.bucket_of[self.flat_lag - 1]
        self.flat_dst = np.repeat(events.processes.astype(np.int64), sizes)
        # Precomputed gather index into raveled (K, K) arrays: candidate
        # values become flat gathers + products.
        k = events.n_processes
        self._pair = self.flat_src * k + self.flat_dst
        self.dst = events.processes.astype(np.int64)
        # Exposure rows: each entry parents on its own process's row.
        remaining = events.n_bins - 1 - ev_bins
        self._init_bucket_space(
            basis, self.dst, events.counts.astype(np.float64),
            np.minimum(remaining, basis.max_lag), (k, k))

    # -- per-event views ----------------------------------------------------

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        if not len(self.events):
            return []
        return np.split(flat, self.offsets[1:-1])

    @property
    def cand_src(self) -> list[np.ndarray]:
        return self._split(self.flat_src)

    @property
    def cand_lag(self) -> list[np.ndarray]:
        return self._split(self.flat_lag)

    @property
    def cand_cnt(self) -> list[np.ndarray]:
        return self._split(self.flat_cnt)

    @property
    def cand_bucket(self) -> list[np.ndarray]:
        return self._split(self.flat_bucket)
