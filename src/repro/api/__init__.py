"""``repro.api`` — the unified session, artifact-cache, and serving layer.

This package is the public surface of the reproduction.  A
:class:`Study` owns one configuration and exposes every pipeline
product as a lazily computed, dependency-tracked stage artifact; an
:class:`ArtifactStore` persists those artifacts content-addressed on
disk so any product is computed at most once per configuration across
processes and sessions; a :class:`StudyService` serves them over HTTP
with ETag/304 semantics driven by the artifact keys.

Stage graph
===========

Arrows point from an artifact to the stages derived from it; each
stage's key hashes its own parameters plus the keys of everything
upstream, so a changed knob invalidates exactly the cone below it::

    world (WorldConfig)
      └── data (collect; stream_seed)
            ├── table:1 .. table:10        (paper Tables 1-10)
            ├── overview                   (report counts, Figures 3, 5)
            └── cascades
                  └── corpus (gaps, trim_fraction, max_urls)
                        └── fits (HawkesConfig, method, fit_seed)
                              ├── table:11
                              ├── aggregate   (Figure 10)
                              └── summary     (Table 11 rates)

:meth:`Study.report` is not a stage: it renders ``overview``,
``table:2`` and ``table:5`` .. ``table:10``, the corpus, ``fits`` and
``aggregate``, so a warm report computes nothing and never loads
``world`` or ``data``.

``n_jobs`` is deliberately absent from every key: the parallel layer
guarantees bit-identical results for any worker count, so it is an
execution knob, not a configuration knob.

Quickstart::

    from repro import Study

    study = Study(seed=7, cache_dir=".repro-cache")
    print(study.table(4).render())     # cold: builds world -> data -> table
    study.table(4)                     # warm: memoized, no recompute
    result = study.influence()         # Section-5 per-URL Hawkes fits

    from repro.api import StudyService
    StudyService(study, port=8731).serve_forever()   # or: repro serve
"""

from .serialize import (
    canonical_bytes,
    experiments_payload,
    filter_influence,
    influence_payload,
    payload_key,
)
from .service import LIVE_INFLUENCE_REF, StudyService, serve
from .store import SCHEMA_VERSION, ArtifactStore, digest, fingerprint
from .study import Study
from .tables import TABLE_IDS, TableArtifact, build_table

__all__ = [
    "ArtifactStore",
    "LIVE_INFLUENCE_REF",
    "SCHEMA_VERSION",
    "Study",
    "StudyService",
    "TABLE_IDS",
    "TableArtifact",
    "build_table",
    "canonical_bytes",
    "digest",
    "experiments_payload",
    "filter_influence",
    "fingerprint",
    "influence_payload",
    "payload_key",
    "serve",
]
