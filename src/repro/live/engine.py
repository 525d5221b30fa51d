"""The live engine: bus in, rolling paper-measurement views out.

``LiveEngine`` drains an :class:`~repro.live.bus.EventBus`, feeds every
record to the incremental aggregators, periodically re-estimates Hawkes
influence over a sliding window, snapshots its state to a checkpoint
file, and emits rolling summaries.  Each record costs O(log n) work
(the cascade insertion dominates); no step rescans the stream.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from ..obs import get_registry, publish_snapshot, span
from ..platforms.registry import PAPER_ECOSYSTEM, Ecosystem
from .aggregators import (
    CascadeAssembler,
    DomainFractionAggregator,
    FirstHopAggregator,
    UrlAppearanceAggregator,
)
from .bus import EventBus
from .checkpoint import load_checkpoint, save_checkpoint
from .refit import WindowedHawkesRefitter

logger = logging.getLogger("repro.live")


@dataclass(frozen=True)
class RollingSummary:
    """One rolling progress line of the engine."""

    records: int
    by_source: dict[str, int]
    stream_time: float
    distinct_urls: int
    open_cascades: int
    n_refits: int

    def format(self) -> str:
        sources = " ".join(f"{name}={count}"
                           for name, count in sorted(self.by_source.items()))
        return (f"[t={self.stream_time:14.1f}] {self.records:8d} records "
                f"({sources}) urls={self.distinct_urls} "
                f"cascades={self.open_cascades} refits={self.n_refits}")


class LiveEngine:
    """Incremental analytics over a merged record stream."""

    def __init__(self, bus: EventBus | None = None, *,
                 refitter: WindowedHawkesRefitter | None = None,
                 checkpoint_path: str | Path | None = None,
                 checkpoint_every: int = 20000,
                 summary_every: int = 2000,
                 on_summary: Callable[[RollingSummary], None] | None = None,
                 publish_store=None,
                 registry=None,
                 ecosystem: Ecosystem = PAPER_ECOSYSTEM,
                 ) -> None:
        self.bus = bus if bus is not None else EventBus()
        self.refitter = refitter
        #: K-platform ecosystem (the paper's by default): every
        #: aggregator is built over its slices/processes, and the
        #: refitter fits over its processes and selection rule too.
        self.ecosystem = ecosystem
        if refitter is not None:
            refitter.ecosystem = ecosystem
        #: Optional :class:`repro.api.ArtifactStore`; each windowed
        #: refit is published there so the HTTP query service serves
        #: live results next to batch ones (GET /influence?view=live).
        self.publish_store = publish_store
        self.checkpoint_path = (Path(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.checkpoint_every = checkpoint_every
        self.summary_every = summary_every
        self.on_summary = on_summary

        slices, slice_of = ecosystem.slices, ecosystem.slice_of
        self.domains = DomainFractionAggregator(slices, slice_of)
        self.appearances = UrlAppearanceAggregator(slices, slice_of)
        self.first_hops = FirstHopAggregator(slices, slice_of)
        self.cascades = CascadeAssembler(ecosystem.processes,
                                         ecosystem.process_of)

        self.records_seen = 0
        self.by_source: Counter = Counter()
        self.stream_time = 0.0
        #: Metrics registry (ambient by default); per-source counter
        #: handles are cached so the per-record cost is one method call.
        self.metrics = registry if registry is not None else get_registry()
        self._record_counters: dict = {}
        self._wall_start: float | None = None
        self._wall_base = 0
        #: Records run() must skip to reach the stream position of a
        #: restored checkpoint (set by restore()).
        self._replay_skip = 0
        #: The bus merge, created once: repeated run(limit=...) calls
        #: continue the same iterator, so records a previous call pulled
        #: into the merge heap are never dropped.
        self._events: Iterator | None = None

    # -- ingestion ----------------------------------------------------------

    def process(self, record, source: str = "replay") -> None:
        """Apply one record to every aggregator — the O(Δ) update."""
        self.records_seen += 1
        self.by_source[source] += 1
        counter = self._record_counters.get(source)
        if counter is None:
            counter = self._record_counters[source] = self.metrics.counter(
                "repro_live_records_total",
                "Records processed by the live engine.", source=source)
        counter.inc()
        if record.created_at > self.stream_time:
            self.stream_time = record.created_at
        self.domains.update(record)
        self.appearances.update(record)
        self.first_hops.update(record)
        self.cascades.update(record)

    def run(self, limit: int | None = None) -> int:
        """Drain the bus (up to ``limit`` new records); returns records read.

        After :meth:`restore`, the first ``records_seen`` bus records are
        skipped, not re-processed: the bus is assumed to replay the same
        deterministic stream the checkpointed run consumed (same world
        seed, same sources), so skipping reproduces the stream position.
        """
        if self._wall_start is None:
            self._wall_start = perf_counter()
            self._wall_base = self.records_seen
        consumed = self._run_rows(limit)
        if self.checkpoint_path is not None and consumed:
            self.checkpoint()
        if consumed:
            self._update_gauges()
            self.publish_metrics()
        return consumed

    def _run_rows(self, limit: int | None) -> int:
        if self._events is None:
            self._events = self.bus.events()
        events = self._events
        while self._replay_skip > 0:
            if next(events, None) is None:
                break
            self._replay_skip -= 1
        if limit is not None:
            events = islice(events, limit)
        consumed = 0
        for source, record in events:
            self.process(record, source)
            consumed += 1
            if self.summary_every and self.records_seen % self.summary_every == 0:
                self._emit_summary()
            if self.refitter is not None:
                refit = self.refitter.maybe_refit(
                    self.cascades, self.stream_time, self.records_seen)
                if refit is not None:
                    self.publish_influence(refit)
            if (self.checkpoint_path is not None and self.checkpoint_every
                    and self.records_seen % self.checkpoint_every == 0):
                self.checkpoint()
        return consumed

    # -- publishing ---------------------------------------------------------

    def publish_influence(self, result) -> str | None:
        """Publish a refit into the artifact store; returns its key.

        The payload uses the same serializer as the batch ``/influence``
        endpoint, stored content-addressed with the stable ref
        ``live/influence`` pointed at the newest key — exactly how the
        query service finds it.  No-op (returns ``None``) without a
        ``publish_store``.
        """
        if self.publish_store is None:
            return None
        from ..api.serialize import influence_payload, payload_key
        from ..api.service import LIVE_INFLUENCE_REF
        payload = influence_payload(result)
        key = payload_key(payload)
        self.publish_store.put(key, payload)
        self.publish_store.set_ref(LIVE_INFLUENCE_REF, key)
        return key

    def publish_metrics(self) -> str | None:
        """Publish the current metrics snapshot into the artifact store.

        Stored content-addressed under the stable ref ``obs/metrics`` so
        ``repro stats --cache`` and the query service can report on a
        run after (or while) it happens.  No-op without a
        ``publish_store`` or with metrics disabled.
        """
        if self.publish_store is None or not self.metrics.enabled:
            return None
        return publish_snapshot(self.publish_store, self.metrics.snapshot())

    # -- summaries ----------------------------------------------------------

    def summary(self) -> RollingSummary:
        return RollingSummary(
            records=self.records_seen,
            by_source=dict(self.by_source),
            stream_time=self.stream_time,
            distinct_urls=self.appearances.distinct_urls(),
            open_cascades=len(self.cascades),
            n_refits=(self.refitter.n_refits
                      if self.refitter is not None else 0),
        )

    def _emit_summary(self) -> None:
        summary = self.summary()
        self._update_gauges()
        logger.info("%s", summary.format())
        if self.on_summary is not None:
            self.on_summary(summary)

    def _update_gauges(self) -> None:
        metrics = self.metrics
        metrics.gauge("repro_live_stream_time_seconds",
                      "Stream clock of the newest record seen.",
                      ).set(self.stream_time)
        if self._wall_start is not None:
            elapsed = perf_counter() - self._wall_start
            if elapsed > 0:
                metrics.gauge(
                    "repro_live_ingest_records_per_second",
                    "Records ingested per wall second since run() began.",
                ).set((self.records_seen - self._wall_base) / elapsed)

    # -- checkpoint / restore -----------------------------------------------

    def state_dict(self) -> dict:
        state = {
            "records_seen": self.records_seen,
            "by_source": dict(self.by_source),
            "stream_time": self.stream_time,
            "domains": self.domains.state_dict(),
            "appearances": self.appearances.state_dict(),
            "first_hops": self.first_hops.state_dict(),
            "cascades": self.cascades.state_dict(),
        }
        if self.refitter is not None:
            state["refitter"] = self.refitter.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        self.records_seen = int(state["records_seen"])
        self.by_source = Counter(state["by_source"])
        self.stream_time = float(state["stream_time"])
        self.domains.load_state(state["domains"])
        self.appearances.load_state(state["appearances"])
        self.first_hops.load_state(state["first_hops"])
        self.cascades.load_state(state["cascades"])
        if self.refitter is not None and "refitter" in state:
            self.refitter.load_state(state["refitter"])

    def checkpoint(self) -> Path:
        if self.checkpoint_path is None:
            raise ValueError("engine has no checkpoint_path")
        with span("live.checkpoint", records=self.records_seen):
            start = perf_counter()
            path = save_checkpoint(self.checkpoint_path, self.state_dict())
        self.metrics.histogram(
            "repro_live_checkpoint_seconds",
            "Wall time of one checkpoint save.",
        ).observe(perf_counter() - start)
        return path

    def restore(self, path: str | Path | None = None) -> None:
        """Load a checkpoint so the engine resumes mid-stream.

        The next :meth:`run` skips the first ``records_seen`` records of
        the bus — restore expects the bus to replay the same stream the
        checkpointed run consumed.  To continue from a different feed,
        use :meth:`load_state` directly.
        """
        source = path if path is not None else self.checkpoint_path
        if source is None:
            raise ValueError("engine has no checkpoint_path")
        self.load_state(load_checkpoint(source))
        self._replay_skip = self.records_seen
