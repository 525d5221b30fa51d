"""Live ingestion: streaming event bus + incremental analytics.

The batch pipeline answers the paper's questions by rescanning full
datasets; this subsystem answers them continuously.  An
:class:`EventBus` merges per-platform record streams (the collectors'
``stream()`` generators, or JSONL replays) into one timestamp-ordered
feed; a :class:`LiveEngine` maintains the headline measurements —
domain fractions (Fig. 2 / Tables 5-7), URL appearance counts (Fig. 1),
cross-platform first hops (Tables 9-10), and per-URL cascades for the
Hawkes influence estimator — incrementally, in O(Δ) per record, with
checkpoint/restore and sliding-window influence refits.
"""

from .aggregators import (
    CascadeAssembler,
    DomainFractionAggregator,
    FirstHopAggregator,
    UrlAppearanceAggregator,
)
from .bus import EventBus, dataset_source, jsonl_source
from .checkpoint import load_checkpoint, save_checkpoint
from .engine import LiveEngine, RollingSummary
from .refit import RefitPolicy, WindowedHawkesRefitter

__all__ = [
    "CascadeAssembler",
    "DomainFractionAggregator",
    "FirstHopAggregator",
    "UrlAppearanceAggregator",
    "EventBus",
    "dataset_source",
    "jsonl_source",
    "load_checkpoint",
    "save_checkpoint",
    "LiveEngine",
    "RollingSummary",
    "RefitPolicy",
    "WindowedHawkesRefitter",
]
