"""Sparse discrete-time event sequences.

Section 5.2 builds, for each URL, a matrix ``s`` of event counts per
minute per process.  Those matrices are overwhelmingly sparse (a URL
spanning months has hundreds of thousands of minute bins but only tens
of events), so we store only the occupied ``(bin, process, count)``
triples, sorted by bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class DiscreteEvents:
    """Sparse event-count matrix ``s in N^{T x K}``.

    Attributes
    ----------
    bins:
        Sorted ``int64`` array of occupied time-bin indices (may repeat
        when several processes have events in the same bin).
    processes:
        Process index of each entry, aligned with ``bins``.
    counts:
        Event count of each entry (all ``>= 1``).
    n_bins:
        Total number of time bins ``T``.
    n_processes:
        Number of point processes ``K``.
    """

    bins: np.ndarray
    processes: np.ndarray
    counts: np.ndarray
    n_bins: int
    n_processes: int

    def __post_init__(self) -> None:
        if not (len(self.bins) == len(self.processes) == len(self.counts)):
            raise ValueError("bins/processes/counts must be equal length")
        if len(self.bins) and np.any(np.diff(self.bins) < 0):
            raise ValueError("bins must be sorted ascending")
        if len(self.counts) and self.counts.min() < 1:
            raise ValueError("counts must be >= 1")
        if len(self.bins):
            if self.bins.min() < 0 or self.bins.max() >= self.n_bins:
                raise ValueError("bin index out of range")
            if self.processes.min() < 0 or self.processes.max() >= self.n_processes:
                raise ValueError("process index out of range")

    def __len__(self) -> int:
        return len(self.bins)

    @property
    def total_events(self) -> int:
        return int(self.counts.sum())

    def events_per_process(self) -> np.ndarray:
        """Total event count per process, shape ``(K,)``."""
        totals = np.zeros(self.n_processes, dtype=np.int64)
        np.add.at(totals, self.processes, self.counts)
        return totals

    def to_dense(self) -> np.ndarray:
        """Expand to a dense ``(T, K)`` count matrix (small inputs only)."""
        dense = np.zeros((self.n_bins, self.n_processes), dtype=np.int64)
        np.add.at(dense, (self.bins, self.processes), self.counts)
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "DiscreteEvents":
        """Build from a dense ``(T, K)`` count matrix."""
        dense = np.asarray(dense)
        rows, cols = np.nonzero(dense)
        order = np.argsort(rows, kind="stable")
        rows, cols = rows[order], cols[order]
        return cls(
            bins=rows.astype(np.int64),
            processes=cols.astype(np.int64),
            counts=dense[rows, cols].astype(np.int64),
            n_bins=dense.shape[0],
            n_processes=dense.shape[1],
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], n_bins: int,
                   n_processes: int) -> "DiscreteEvents":
        """Build from an iterable of ``(bin, process)`` single events."""
        tally: dict[tuple[int, int], int] = {}
        for t, k in pairs:
            tally[(int(t), int(k))] = tally.get((int(t), int(k)), 0) + 1
        ordered = sorted(tally)
        bins = np.array([t for t, _ in ordered], dtype=np.int64)
        procs = np.array([k for _, k in ordered], dtype=np.int64)
        counts = np.array([tally[key] for key in ordered], dtype=np.int64)
        return cls(bins=bins, processes=procs, counts=counts,
                   n_bins=n_bins, n_processes=n_processes)


def bin_timestamps(timestamps: Sequence[float], process_ids: Sequence[int],
                   n_processes: int, delta_t: float = 60.0,
                   origin: float | None = None) -> DiscreteEvents:
    """Bin raw ``(timestamp, process)`` events into :class:`DiscreteEvents`.

    Following Section 5.2, the origin defaults to the first event and the
    matrix extends to the bin of the last event (``T`` differs per URL).
    """
    if len(timestamps) != len(process_ids):
        raise ValueError("timestamps and process_ids must be equal length")
    if not len(timestamps):
        return DiscreteEvents(
            bins=np.empty(0, dtype=np.int64),
            processes=np.empty(0, dtype=np.int64),
            counts=np.empty(0, dtype=np.int64),
            n_bins=1, n_processes=n_processes)
    ts = np.asarray(timestamps, dtype=np.float64)
    if origin is None:
        origin = float(ts.min())
    rel = np.floor((ts - origin) / float(delta_t)).astype(np.int64)
    if rel.min() < 0:
        raise ValueError("timestamp precedes origin")
    n_bins = int(rel.max()) + 1
    pairs = zip(rel.tolist(), (int(p) for p in process_ids))
    return DiscreteEvents.from_pairs(pairs, n_bins=n_bins,
                                     n_processes=n_processes)
