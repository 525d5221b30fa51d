"""``repro.resilience`` — deterministic fault injection + the hardening it exercises.

The reproduction's core discipline is that results are bit-identical
under any *execution plan* (worker count, chunking, batching).  This
package extends the same discipline to *failure*: results are
bit-identical under transient faults, because every recovery path
replays deterministic work rather than improvising.

Two halves:

**Fault injection** (:mod:`~repro.resilience.faults`) — a seeded
:class:`FaultPlan` derives reproducible fault schedules for collector
streams (transient errors, malformed records), parallel workers
(chunk crashes, pool-killing exits), artifact-store objects (byte
corruption), and service handlers (failing calls).  Chaos tests replay
exactly.

**Hardening** — the layers the injectors exercise:

* :func:`supervised_source` restarts transiently failed sources with
  exponential backoff and bounded retries, skipping already-delivered
  records (deterministic replay), and diverts malformed or
  out-of-order records into a :class:`Quarantine` dead-letter sidecar
  instead of killing the run.
* :func:`repro.parallel.parallel_map` retries failed chunks with their
  original seeds (bit-identical re-dispatch), respawns a broken pool,
  and falls back to in-process execution as a last resort.
* :class:`repro.api.ArtifactStore` sha-verifies every object read from
  disk, quarantining corrupt files and transparently recomputing.
* :class:`repro.api.StudyService` serves the last-good body with a
  ``Warning`` header when a recompute raises, reports degraded
  components on ``/healthz``, and drains in-flight requests on
  shutdown.

Metric families: ``repro_faults_injected_total{site,kind}``,
``repro_ingest_quarantined_total{source,reason}``,
``repro_source_restarts_total`` / ``repro_source_dead_total``,
``repro_retry_attempts_total{site}``,
``repro_parallel_chunk_retries_total`` /
``repro_parallel_pool_respawns_total`` /
``repro_parallel_serial_fallback_total``,
``repro_store_corrupt_total``, ``repro_serve_stale_total{component}``.
"""

from .faults import (
    WORKER_FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    SourceFaults,
    clear_worker_faults,
    corrupt_object,
    install_worker_faults,
    maybe_inject_worker_fault,
)
from .quarantine import Quarantine
from .retry import (
    RetryPolicy,
    SimulatedWorkerCrash,
    TransientFault,
    TransientSourceError,
    retry_call,
)
from .supervise import supervised_source, validate_record

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "Quarantine",
    "RetryPolicy",
    "SimulatedWorkerCrash",
    "SourceFaults",
    "TransientFault",
    "TransientSourceError",
    "WORKER_FAULTS_ENV",
    "clear_worker_faults",
    "corrupt_object",
    "install_worker_faults",
    "maybe_inject_worker_fault",
    "retry_call",
    "supervised_source",
    "validate_record",
]
