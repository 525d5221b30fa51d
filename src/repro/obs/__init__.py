"""``repro.obs`` — the stdlib-only metrics and tracing spine.

Every hot layer of the reproduction records into one ambient
:class:`MetricsRegistry` (:func:`get_registry`), and any long block of
work can be wrapped in a :func:`span` that lands in a JSONL trace when
``REPRO_TRACE=/path.jsonl`` is set.  Instrumentation never draws
randomness and the disabled registry (``REPRO_METRICS=0``) is a true
no-op, so instrumented code paths stay bit-identical — pinned by
golden-equivalence tests against untraced fits.

Metrics catalog, stage by stage
===============================

**Live ingest** (:mod:`repro.live`) ::

    repro_live_records_total{source}        counter    records drained from the bus
    repro_live_ingest_records_per_second    gauge      rolling ingest throughput
    repro_live_stream_time_seconds          gauge      stream-time high-water mark
    repro_live_merge_depth                  gauge      k-way merge heap size
    repro_live_refit_seconds                histogram  windowed Hawkes refit wall time
    repro_live_refit_corpus_urls            gauge      URLs in the last refit window
    repro_live_checkpoint_seconds           histogram  checkpoint save wall time

**Hawkes fitters** (:mod:`repro.core.hawkes.batched`, which runs
every EM and Gibbs fit as a batch of one or more cascades; ``method``
is ``em`` or ``gibbs``) ::

    repro_fit_total{method}                 counter    completed fits, one per URL
    repro_fit_em_iterations                 histogram  EM iterations to convergence, per URL
    repro_fit_em_convergence_delta          histogram  final relative log-likelihood delta,
                                                       per URL
    repro_fit_phase_seconds{method,phase}   histogram  kernel time per phase and batch
                                                       (attribution / updates /
                                                       likelihood)
    repro_fit_batch_total{method}           counter    batched fits (method em | gibbs)
    repro_fit_batch_cascades{method}        histogram  cascades packed into one batch
    repro_fit_batch_iterations{method}      histogram  sweeps until the batch finished
    repro_fit_batch_seconds{method}         histogram  one batched fit, wall time

**Parallel fan-out** (:mod:`repro.parallel`) — per-worker metrics are
collected in the worker (:func:`collecting`), shipped back with the
chunk results, and merged deterministically ::

    repro_parallel_tasks_total              counter    tasks mapped
    repro_parallel_chunks_total             counter    chunks dispatched to workers
    repro_parallel_task_seconds             histogram  per-task duration (workers included)
    repro_parallel_map_seconds              histogram  whole-map wall time
    repro_parallel_worker_utilization       gauge      busy / (n_jobs x wall), last map

**Artifact cache** (:mod:`repro.api.store` / :mod:`repro.api.study`) ::

    repro_store_hits_total{layer}           counter    cache hits (memory | disk)
    repro_store_misses_total                counter    cache misses
    repro_store_bytes_written_total         counter    pickled bytes written to disk
    repro_store_bytes_read_total            counter    pickled bytes read from disk
    repro_store_load_seconds                histogram  disk artifact load time
    repro_store_hit_ratio                   gauge      hits / (hits+misses), set on scrape
    repro_stage_requests_total{stage,result} counter   stage resolutions
                                                       (memo | store | computed)
    repro_stage_compute_seconds{stage}      histogram  cold stage compute time
    repro_stage_load_seconds{stage}         histogram  store fetch time on hit

**HTTP serving** (:mod:`repro.api.service`) ::

    repro_http_requests_total{route,status} counter    requests per route template
    repro_http_request_seconds{route}       histogram  per-route request latency
    repro_http_not_modified_ratio           gauge      304s / requests, set on scrape

**Fault tolerance** (:mod:`repro.resilience` and the layers it
hardens) ::

    repro_faults_injected_total{site,kind}  counter    deterministic injected faults
    repro_ingest_quarantined_total{source,reason} counter  dead-lettered records
    repro_ingest_malformed_total{source,reason} counter  JSONL lines skipped on parse failure
    repro_source_restarts_total{source}     counter    supervised source restarts
    repro_source_dead_total{source}         counter    sources abandoned after retries
    repro_retry_attempts_total{site}        counter    retry_call re-invocations
    repro_parallel_chunk_retries_total      counter    chunk re-dispatches (transient faults)
    repro_parallel_pool_respawns_total      counter    pools respawned after breakage
    repro_parallel_serial_fallback_total    counter    maps finished serially after
                                                       repeated pool breakage
    repro_store_corrupt_total               counter    corrupt artifacts quarantined
    repro_serve_stale_total{component}      counter    responses served from last-good

Access
======

``GET /metrics`` on a :class:`repro.api.StudyService` serves the
registry in Prometheus text format (``?format=json`` for the raw
snapshot); ``repro stats --cache DIR`` pretty-prints the snapshot a
live engine or service last published into an artifact store (ref
``obs/metrics``); ``repro stats --trace FILE`` aggregates a
``REPRO_TRACE`` JSONL by span name.
"""

from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_DELTA_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    METRICS_REF,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    collecting,
    get_registry,
    publish_snapshot,
    set_registry,
    snapshot_key,
)
from .render import CONTENT_TYPE_PROMETHEUS, render_prometheus, render_text
from .trace import (
    TRACE_ENV,
    Span,
    TraceSink,
    span,
    start_trace,
    stop_trace,
    summarize_trace,
)

__all__ = [
    "CONTENT_TYPE_PROMETHEUS",
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_DELTA_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS_REF",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Span",
    "TRACE_ENV",
    "TraceSink",
    "collecting",
    "get_registry",
    "publish_snapshot",
    "render_prometheus",
    "render_text",
    "set_registry",
    "snapshot_key",
    "span",
    "start_trace",
    "stop_trace",
    "summarize_trace",
]
